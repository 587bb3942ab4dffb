"""Exhaustive schedule search used to cross-check the optimizer.

Enumerates integer start-cycle vectors over a bounded horizon and scores
each candidate with the token simulator's per-edge record: a candidate is
feasible when every edge is stall-free, and its cost is the summed exact
peak occupancy. Nothing here consults the optimizer's constraint algebra,
so agreement between the two is a genuine two-route check.

**What the walk returns.** It is a depth-first walk over the stages in
topological order, each stage's starts in increasing order, so it meets
the vectors of the box [0, latest]^n in lexicographic order. It keeps a
vector only when its total is strictly below the incumbent's and returns
the last one kept: the lexicographically least optimal vector.
``candidates_tried`` counts the vectors kept. A feasible vector v is kept
exactly when its total is below that of every feasible vector before it,
which is a property of the vectors alone. So a prune changes neither the
result nor the count if every vector it skips fails that test, and if the
incumbent is still, at each point, the least total of all feasible vectors
before that point.

**Prunes.** Each of the three below skips only vectors that are not kept.

- *Bound.* An edge's cost never falls as its consumer starts later (frees
  only move later), and each unplaced edge costs at least its cheapest
  feasible peak. A stage's candidate loop stops once the placed cost plus
  those minima reaches the incumbent: every vector skipped costs at least
  the incumbent's total.
- *Horizon.* The walk starts each stage at max(0, producer start +
  ``min_offset``) over its in-edges, so below a stage started at s every
  descendant starts at least s plus the longest path of ``min_offset``s to
  it. A stage's loop ends where that would put a descendant past
  ``latest``: no vector the walk could reach lies below.
- *Translation.* Every edge's verdict and peak depend only on its start
  offset, so v and v - m (m subtracted from every start) have the same
  verdict and total. If m = min(v) > 0, v - m lies in the box and comes
  before v, so v is not kept. The start rule above, carried from the
  placed starts through the unplaced stages in topological order, gives
  a lower bound on each unplaced start. When every placed start and every
  such bound is positive, each vector below has a positive minimum, and
  so do those under every later start of the same stage (the bounds only
  grow with it), so the loop stops.

The incumbent stays right. The horizon prune skips no vector the walk
could reach. A vector skipped by translation has a translate with a start
at 0, which no translation prune skips; the walk has either met it or
skipped it by the bound, because its total already reached the
incumbent's.

**Evaluation.** Each edge is scored on one record: the simulator's
``EdgeTicks`` for the edge with both stages started at 0, whose scale of T
ticks a cycle and L units a token the ``simulator`` module docstring
states. ``edge_ticks`` builds it from what the graph fixes alone (depths,
write end, overwrite delay, drain, volume, rates and kind); neither it nor
anything here reads ``EdgeModel``'s ``min_offset``, ``peak``, ``g`` or
``branches``.

The least feasible offset is read off the record in ticks. A Global
consumer may start once writing ends, at ``ceil(write_end / T)``, where
the writes at its start reach V. On any other edge the readable supply
and the demand are both ramps clamped to [0, V]: readable rises from 0 at
``write_start + T`` to V at ``write_end + T``, and demand from 0 at
``demand_start`` to V at ``demand_start + drain_end - overwrite_start``.
Two clamped ramps between the same levels satisfy demand <= readable
everywhere exactly when demand starts no earlier, and ends no earlier,
than the supply; the simulator's stall check (``EdgeTicks.stall``)
compares the two at all four of those ends, so it agrees. Moving the
consumer by the offset moves demand alone, so the least feasible offset is
``ceil((write_start + T - demand_start + max(0, (write_end - write_start)
- (drain_end - overwrite_start))) / T)``. The threshold is then scored
twice, at itself and one below, and must be feasible and infeasible:
feasibility only grows with the offset, so the two scorings prove it least
by the simulator's stall check alone. A failed probe is a
``ScheduleError("internal inconsistency: ...")``.

An offset of d cycles is scored on the record with only the consumer side
moved, by d*T ticks. The producer starts at 0 at every offset, so
``write_start``, ``write_end``, the writes and the readable supply are
those at 0; ``demand_start``, ``overwrite_start``, ``consumer_start`` and
``drain_end`` are each the consumer's start plus a span the graph fixes,
so each is its value at 0 plus d*T. The stall check is ``EdgeTicks.stall``
at the moved times. The peak is the largest occupancy over the moved
curves' kinks. The occupancy, max(0, writes - raw frees), is linear
between those kinks and constant outside them, so largest at one of them.
It is 0 at a root, where the writes equal the raw frees and both lie in
[0, V]; at ``write_start``, which has no writes yet; and at ``drain_end +
d*T``, where the raw frees are V. So the peak is the largest of 0 and the
occupancy at ``write_end`` and ``overwrite_start + d*T``, a multiple of
1/L.

Each edge's (feasible, peak) is scored at most once per offset and kept
in a list indexed by offset from the threshold, whose first row is the
threshold's score. ``sat_offset``, read off the record too, is the larger
of the threshold and ``ceil((write_end - demand_start) / T)``. An offset
above it reads its row: from there the overwrite starts at or past the
producer's write end (``overwrite_delay`` is at least the consumer's
depth), so the whole volume V is resident at the write end and the peak
is V, the most any occupancy can reach; and feasibility only grows with
the offset. Rows are scored on first use, because a walk on a tree uses a
few offsets of ranges a hundred long.

The walk adds and compares integers, every peak in units of 1/``scale``,
the lcm of L over the edges, fixed before the walk; a peak off it is a
``ScheduleError("internal inconsistency: ...")``. The total is a
``Fraction`` again at the end.

**Budget.** A walk that scores ``MAX_SEARCH_NODES`` candidate starts stops
with ``SearchBudgetError``; ``verify`` then reports neither a match nor a
mismatch but an inconclusive verdict with the best total found.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .graph import PipelineGraph
from .optimizer import (
    EdgeModel,
    ScheduleError,
    SearchLimitError,
    build_constraints,
    default_horizon,
    edge_models,
    solve,
)
from .simulator import edge_ticks

# Candidate starts the walk may score in one search. Over 5070 searches
# (three horizons each for the graphs of `suite(160, start_seed=5000)`,
# `suite(100, shape="tree")` and `suite(1430, start_seed=30000)`) the most
# was 318550, a 5-stage reconvergent graph at its default horizon; 74628
# on the benchmark's sched_dag pool (diamond5_1, also the most in the
# Tier-1 tests) and at most 15 on the shipped pipelines and the sched_tree
# pool. A node costs about 1.2 us, so the cap ends a search in about five
# seconds; an 8-stage chain of two diamonds reaches it at its default
# horizon.
MAX_SEARCH_NODES = 4_000_000


class SearchBudgetError(Exception):
    """The walk scored ``MAX_SEARCH_NODES`` candidates before it finished:
    the best total found so far is an upper bound, not a proven minimum."""

    def __init__(self, nodes: int, best_total: Fraction | None, candidates: int):
        super().__init__(f"oracle search stopped after {nodes} nodes")
        self.nodes = nodes
        self.best_total = best_total
        self.candidates = candidates


class _EdgeEval:
    """Feasibility and exact peak for one edge as a function of the
    consumer-minus-producer start offset. Scored by the simulator's integer
    record at offset 0, never by ``EdgeModel``'s closed forms."""

    def __init__(self, model: EdgeModel):
        self.model = model
        e = model.edge
        t = self._ticks = edge_ticks(model, {e.producer: 0, e.consumer: 0})
        self.scale = t.unit
        least = self._threshold_guess()
        ok, self.min_cost = self.evaluate(least)
        if not ok or self.evaluate(least - 1)[0]:
            raise ScheduleError(
                f"internal inconsistency: offset {least} is not the least that "
                f"edge {model.key} passes the stall check at")
        self.min_offset = least
        # Offset from which the overwrite starts at or past the producer's
        # write end: the whole volume is resident at once, so the peak and
        # the verdict stop changing, and later offsets read this one.
        self.sat_offset = max(least, -((t.demand_start - t.write_end) // t.ticks))

    def _threshold_guess(self) -> int:
        """The least offset at which the record at offset 0, its consumer
        side moved by it, passes the stall check (see the module
        docstring): a Global consumer starts once writing ends; any other
        starts demand, and finishes it, no earlier than the readable supply,
        which trails the writes by one cycle."""
        e = self._ticks
        if e.is_global:
            return -(-e.write_end // e.ticks)
        lag = max(0, (e.write_end - e.write_start) - (e.drain_end - e.overwrite_start))
        return -((e.demand_start - e.write_start - e.ticks - lag) // e.ticks)

    def evaluate(self, offset: int) -> tuple[bool, Fraction]:
        """(passes the stall check, peak) at ``offset``: the curves at offset
        0 with the consumer side moved by it (see the module docstring), in
        integers at the edge's scale."""
        e = self._ticks
        d = offset * e.ticks
        peak = max(e.occupancy(e.write_end, d), e.occupancy(e.overwrite_start + d, d))
        return e.stall(d) is None, Fraction(peak, e.unit)


@dataclass
class OracleReport:
    matches: bool
    oracle_total: Fraction | None
    oracle_starts: dict[str, int] | None
    solver_total: Fraction | None
    solver_starts: dict[str, int] | None
    candidates_tried: int
    horizon: int
    # Nodes scored when the search ran out of ``MAX_SEARCH_NODES``; then
    # ``oracle_total`` is the best found, and the verdict is neither.
    budget_nodes: int | None = None

    def __str__(self) -> str:
        if self.budget_nodes is not None:
            best = "none" if self.oracle_total is None else self.oracle_total
            return f"inconclusive (budget): {self.budget_nodes} nodes, best total {best}"
        if self.solver_total is None and self.oracle_total is None:
            return f"both infeasible within horizon {self.horizon}: match"
        if self.solver_total is None or self.oracle_total is None:
            # One route found a schedule the other says does not exist.
            if self.solver_total is None:
                side, other = "solver", f"oracle total {self.oracle_total} at {self.oracle_starts}"
            else:
                side, other = "oracle", f"solver total {self.solver_total} at {self.solver_starts}"
            return (
                f"MISMATCH: {side} infeasible within horizon {self.horizon}, "
                f"{other} ({self.candidates_tried} candidates)"
            )
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
    feasible vector exists within the horizon. Raises ``SearchBudgetError``
    once the walk has scored ``MAX_SEARCH_NODES`` candidate starts.
    """
    order = graph.topo_order
    pos = {sid: i for i, sid in enumerate(order)}
    evals = {m.edge: _EdgeEval(m) for m in edge_models(graph)}
    in_edges: list[list[tuple[int, _EdgeEval]]] = [[] for _ in order]
    for e in graph.edges:
        in_edges[pos[e.consumer]].append((pos[e.producer], evals[e]))
    # Every optimum has a representative (shift the schedule so some stage
    # sits at cycle 0) in which each start is pinned through a chain of
    # edges, each contributing at most its saturation or earliest offset.
    span = 1 + sum(
        max(abs(ev.min_offset), abs(ev.sat_offset)) + 1 for ev in evals.values()
    )
    latest = min(horizon, span)
    scale = lcm(*(ev.scale for ev in evals.values()))
    total, starts, tried = _walk(in_edges, latest, scale)
    if total is None:
        return None, None, tried
    return Fraction(total, scale), dict(zip(order, starts)), tried


def _walk(
    in_edges: list[list[tuple[int, _EdgeEval]]], latest: int, scale: int
) -> tuple[int | None, list[int] | None, int]:
    """The depth-first walk of ``exhaustive_minimum`` with every peak
    counted in units of 1/``scale``."""
    n = len(in_edges)

    def scored(ev: _EdgeEval, offset: int, ok: bool, peak: Fraction) -> int:
        """The row for one scoring: -1 where infeasible, else the peak
        in units of 1/``scale``."""
        if not ok:
            return -1
        if scale % peak.denominator:
            raise ScheduleError(
                f"internal inconsistency: peak {peak} of edge {ev.model.key} "
                f"at offset {offset} is not a multiple of 1/{scale}")
        return peak.numerator * (scale // peak.denominator)

    # Per position and in-edge: (producer position, min_offset, sat_offset,
    # scaled peak per offset from min_offset: None until scored, -1 where
    # infeasible, and the edge's evaluator). Row 0 is the threshold's score.
    edges = [
        [(p, ev.min_offset, ev.sat_offset,
          [scored(ev, ev.min_offset, True, ev.min_cost)]
          + [None] * (ev.sat_offset - ev.min_offset), ev) for p, ev in ins]
        for ins in in_edges
    ]
    # Lower bound on everything scheduled after position i.
    rest_min = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        rest_min[i] = rest_min[i + 1] + sum(costs[0] for _, _, _, costs, _ in edges[i])
    # How far past a stage's start the start rule pushes its descendants:
    # the longest path of ``min_offset``s out of it, and at least 0.
    reach = [0] * n
    for j in range(n - 1, -1, -1):
        for p, ev in in_edges[j]:
            reach[p] = max(reach[p], ev.min_offset + reach[j])
    budget = MAX_SEARCH_NODES

    best_total: int | None = None
    best_starts: list[int] | None = None
    tried = 0
    nodes = 0
    placed = [0] * n

    def lifted(i: int) -> bool:
        """Whether every stage after position i must start above cycle 0,
        by ``min_offset`` propagated from the placed starts."""
        lb = placed[: i + 1]
        for j in range(i + 1, n):
            b = 0
            for p, off, _, _, _ in edges[j]:
                if lb[p] + off > b:
                    b = lb[p] + off
            if b == 0:
                return False
            lb.append(b)
        return True

    def place(i: int, partial: int, pinned: bool) -> None:
        nonlocal best_total, best_starts, tried, nodes
        if i == n:
            tried += 1
            if best_total is None or partial < best_total:
                best_total = partial
                best_starts = placed[:]
            return
        ins = edges[i]
        lo = 0
        for p, off, _, _, _ in ins:
            lo = max(lo, placed[p] + off)
        # Past latest - reach[i] some descendant would start past latest.
        for start in range(lo, latest - reach[i] + 1):
            placed[i] = start
            if not pinned and start > 0 and lifted(i):
                # Every vector below has all starts positive, and its shift
                # by the least start is lex-smaller with the same total.
                break
            if nodes == budget:
                raise SearchBudgetError(
                    nodes, None if best_total is None else Fraction(best_total, scale),
                    tried)
            nodes += 1
            cost = partial
            for p, off, top, costs, ev in ins:
                d = start - placed[p]
                k = (top if d > top else d) - off
                c = costs[k]
                if c is None:
                    c = costs[k] = scored(ev, off + k, *ev.evaluate(off + k))
                if c < 0:
                    break
                cost += c
            else:
                if best_total is not None and cost + rest_min[i + 1] >= best_total:
                    # In-edge costs only grow with later starts: the rest of
                    # this loop cannot beat the incumbent.
                    break
                place(i + 1, cost, pinned or start == 0)

    place(0, 0, False)
    return best_total, best_starts, tried


def verify_against_oracle(
    graph: PipelineGraph, horizon: int | None = None
) -> OracleReport:
    """Compare the exact solver against exhaustive enumeration."""
    if horizon is None:
        horizon = default_horizon(graph)

    solver_total: Fraction | None = None
    solver_starts: dict[str, int] | None = None
    try:
        solution = solve(build_constraints(graph, horizon=horizon))
        solver_total = solution.total_buffer
        solver_starts = solution.start_cycles
    except SearchLimitError:
        raise
    except ScheduleError:
        pass

    budget_nodes = None
    try:
        oracle_total, oracle_starts, tried = exhaustive_minimum(graph, horizon)
    except SearchBudgetError as exc:
        oracle_total, oracle_starts, tried = exc.best_total, None, exc.candidates
        budget_nodes = exc.nodes
    return OracleReport(
        # A route that finds no schedule reports None, so two infeasible
        # verdicts match and one feasible verdict matches neither.
        matches=budget_nodes is None and solver_total == oracle_total,
        oracle_total=oracle_total,
        oracle_starts=oracle_starts,
        solver_total=solver_total,
        solver_starts=solver_starts,
        candidates_tried=tried,
        horizon=horizon,
        budget_nodes=budget_nodes,
    )
