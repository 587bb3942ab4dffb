"""Exhaustive schedule search used to cross-check the optimizer.

Enumerates integer start-cycle vectors over a bounded horizon and scores
each candidate with the token simulator's edge curves: a candidate is
feasible when every edge is stall-free, and its cost is the summed exact
peak occupancy. Nothing here consults the optimizer's constraint algebra,
so agreement between the two is a genuine two-route check.

The search is a depth-first walk over stages in topological order with two
sound prunes: per-edge cost is nondecreasing in the consumer's start (frees
only move later), so a stage's candidate loop stops as soon as the partial
cost can no longer beat the incumbent; and unplaced edges are bounded below
by their individually cheapest feasible cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil

from .graph import Edge, PipelineGraph
from .optimizer import (
    EdgeModel,
    ScheduleError,
    SearchLimitError,
    build_constraints,
    default_horizon,
    edge_models,
    solve,
)
from .simulator import edge_curves, edge_stall_margin

_ZERO = Fraction(0)


class _EdgeEval:
    """Feasibility and exact peak for one edge as a function of the
    consumer-minus-producer start offset; memoized per offset. Scored by
    the simulator's curves, never by ``EdgeModel``'s closed forms."""

    def __init__(self, model: EdgeModel):
        self.model = model
        self._memo: dict[int, tuple[bool, Fraction]] = {}
        slack = ceil(model.depth_p + model.depth_c + model.dur_p + model.dur_c + 2)
        # Offsets at least `slack` are always feasible (producer fully done
        # with a cycle to spare before the consumer needs anything) and the
        # smallest feasible offset cannot sit below -slack, so feasibility
        # is monotone on [-slack, slack] and bisection finds its threshold.
        lo, hi = -slack, slack
        while lo < hi:
            mid = (lo + hi) // 2
            if self.evaluate(mid)[0]:
                hi = mid
            else:
                lo = mid + 1
        self.min_offset = lo
        self.min_cost = self.evaluate(lo)[1]
        # Offset beyond which the peak saturates at the full edge volume and
        # stops changing: overwrite start at or past the producer's write end.
        self.sat_offset = max(self.min_offset, ceil(model.write_end - model.depth_c))

    def evaluate(self, offset: int) -> tuple[bool, Fraction]:
        hit = self._memo.get(offset)
        if hit is None:
            e = self.model.edge
            curves = edge_curves(self.model, {e.producer: 0, e.consumer: offset})
            margin, _ = edge_stall_margin(curves)
            peak = _ZERO
            for t in curves.occupancy_kinks():
                occ = curves.occupancy(t)
                if occ > peak:
                    peak = occ
            hit = (margin >= 0, peak)
            self._memo[offset] = hit
        return hit


@dataclass
class OracleReport:
    matches: bool
    graph_feasible: bool
    oracle_total: Fraction | None
    oracle_starts: dict[str, int] | None
    solver_total: Fraction | None
    solver_starts: dict[str, int] | None
    candidates_tried: int
    horizon: int

    def __str__(self) -> str:
        if not self.graph_feasible:
            return f"both infeasible within horizon {self.horizon}: match"
        verdict = "match" if self.matches else "MISMATCH"
        return (
            f"{verdict}: oracle total {self.oracle_total} at {self.oracle_starts}, "
            f"solver total {self.solver_total} at {self.solver_starts} "
            f"({self.candidates_tried} candidates, horizon {self.horizon})"
        )


def exhaustive_minimum(
    graph: PipelineGraph, horizon: int
) -> tuple[Fraction | None, dict[str, int] | None, int]:
    """Exact minimum total buffer over start vectors in [0, horizon]^n.

    Returns (total, starts, candidates_tried); total is None when no
    feasible vector exists within the horizon.
    """
    order = graph.topo_order
    evals = {m.edge: _EdgeEval(m) for m in edge_models(graph)}
    in_edges: dict[str, list[Edge]] = {sid: [] for sid in order}
    for e in graph.edges:
        in_edges[e.consumer].append(e)
    # Lower bound on everything scheduled after position i.
    rest_min: list[Fraction] = [_ZERO] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        rest_min[i] = rest_min[i + 1] + sum(
            (evals[e].min_cost for e in in_edges[order[i]]), _ZERO
        )
    # Every optimum has a representative (shift the schedule so some stage
    # sits at cycle 0) in which each start is pinned through a chain of
    # edges, each contributing at most its saturation or earliest offset.
    span = 1 + sum(
        max(abs(ev.min_offset), abs(ev.sat_offset)) + 1 for ev in evals.values()
    )
    latest = min(horizon, span)

    best_total: Fraction | None = None
    best_starts: dict[str, int] | None = None
    tried = 0
    placed: dict[str, int] = {}

    def place(i: int, partial: Fraction) -> None:
        nonlocal best_total, best_starts, tried
        if i == len(order):
            tried += 1
            if best_total is None or partial < best_total:
                best_total = partial
                best_starts = dict(placed)
            return
        sid = order[i]
        lo = 0
        for e in in_edges[sid]:
            lo = max(lo, placed[e.producer] + evals[e].min_offset)
        for start in range(lo, latest + 1):
            cost = partial
            feasible = True
            for e in in_edges[sid]:
                ok, peak = evals[e].evaluate(start - placed[e.producer])
                if not ok:
                    feasible = False
                    break
                cost += peak
            if not feasible:
                continue
            bound = cost + rest_min[i + 1]
            if best_total is not None and bound >= best_total:
                # In-edge costs only grow with later starts: the rest of
                # this loop cannot beat the incumbent.
                break
            placed[sid] = start
            place(i + 1, cost)
            del placed[sid]
        return

    place(0, _ZERO)
    return best_total, best_starts, tried


def verify_against_oracle(
    graph: PipelineGraph, horizon: int | None = None
) -> OracleReport:
    """Compare the exact solver against exhaustive enumeration."""
    if horizon is None:
        horizon = default_horizon(graph)

    solver_total: Fraction | None = None
    solver_starts: dict[str, int] | None = None
    solver_feasible = True
    try:
        solution = solve(build_constraints(graph, horizon=horizon))
        solver_total = solution.total_buffer
        solver_starts = solution.start_cycles
    except SearchLimitError:
        raise
    except ScheduleError:
        solver_feasible = False

    oracle_total, oracle_starts, tried = exhaustive_minimum(graph, horizon)
    oracle_feasible = oracle_total is not None
    return OracleReport(
        # A route that finds no schedule reports None, so two infeasible
        # verdicts match and one feasible verdict matches neither.
        matches=solver_total == oracle_total,
        graph_feasible=solver_feasible and oracle_feasible,
        oracle_total=oracle_total,
        oracle_starts=oracle_starts,
        solver_total=solver_total,
        solver_starts=solver_starts,
        candidates_tried=tried,
        horizon=horizon,
    )
