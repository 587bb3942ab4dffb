"""Line-buffer minimization for a validated pipeline graph.

Schedules every stage's integer start cycle so that no stage ever waits on
data, while the summed capacity of all inter-stage line buffers is exactly
minimal. The model is a rate model: a stage active for D cycles consumes
tau_in unique elements per cycle starting at its start cycle, and emits
tau_out elements per cycle once its internal pipeline (depth ``stage``
cycles) has filled.

Per edge p -> c, ``EdgeModel`` holds everything the graph fixes: the
volume V, the producer's write rate and the consumer's read rate, both
pipeline depths and both active durations. The schedule enters only
through the offset d = s_c - s_p, and the model gives, as functions of d:

- ``min_offset``: the smallest feasible d. A token is readable the cycle
  after it is written, so a local consumer needs w_c >= w_p + 1, and the
  producer must stay ahead of the consumer's cumulative demand through the
  consumer's read window; both collapse to two linear endpoint rows (the
  per-timestamp family they prune is emitted in unpruned mode). A Global
  consumer starts only after the producer has written everything.
- ``overwrite_delay``: overwriting may not begin before the consumer retires
  data, at its first-read-capable cycle on local edges and at its
  completion on Global edges; minimization drives the overwrite start to
  that bound.
- ``peak(d)``: the exact buffer occupancy peak, reached when overwriting
  starts or when the producer stops writing. The MILP encodes its two
  branches with one binary saturation selector per local edge; Global edges
  pin the buffer to V outright.

When no stage has two producers the graph is a forest: its edge offsets
are independent and the total is the sum of each edge's ``peak(d)``. Each
peak is least at ``min_offset`` and stays there up to ``max_floor_offset``
(unbounded once the buffer holds all of V), so the optimal schedules are
exactly the offset box ``min_offset <= s_c - s_p <= max_floor_offset`` with
every start >= 0. ``solve`` returns the box's least member, found in two
passes over the forest, without a MILP.

Where paths reconverge (some stage has two or more producers), or when
that least member starts a stage past the horizon, ``solve`` runs the exact
MILP once, on an objective that weighs the buffer total above every start
and each start above the starts declared after it: its one optimum is the
least start vector, in declaration order, among the minimal-total schedules.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, lcm

from .graph import GLOBAL, Edge, PipelineGraph
from . import solver
from .solver import Problem, solve_milp

_ZERO = Fraction(0)


class ScheduleError(Exception):
    """Scheduling failed (infeasible system, exhausted horizon or node limit)."""


class SearchLimitError(ScheduleError):
    """The exact search ran out of branch-and-bound nodes before it proved
    an optimum; unlike its parent, this says nothing about feasibility."""


def edge_key(e: Edge) -> str:
    return f"{e.producer}->{e.consumer}"


def _frac_to_json(x: Fraction) -> int | str:
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _frac_from_json(v: int | str) -> Fraction:
    return Fraction(v)


@dataclass(frozen=True)
class EdgeModel:
    """One edge p -> c as the graph fixes it, and its buffer as a function
    of the start offset d = s_c - s_p alone.

    Times below are relative to the producer's start: the producer writes
    from ``depth_p`` to ``write_end`` and the consumer's overwriting starts
    at ``d + overwrite_delay``.
    """

    edge: Edge
    key: str
    volume: Fraction
    out_rate: Fraction       # producer write rate
    in_rate: Fraction        # consumer read rate
    depth_p: int
    depth_c: int
    dur_p: Fraction          # producer active cycles (volume / out_rate)
    dur_c: Fraction          # consumer active cycles (U_c / in_rate)
    drain: Fraction          # cycles to retire this edge's volume (V / in_rate)
    is_global: bool

    @property
    def write_end(self) -> Fraction:
        return self.depth_p + self.dur_p

    @property
    def overwrite_delay(self) -> Fraction:
        """Cycles from the consumer's start to the edge's overwrite start."""
        return self.depth_c + self.dur_c if self.is_global else Fraction(self.depth_c)

    @property
    def min_offset(self) -> int:
        """Earliest feasible consumer-minus-producer start offset."""
        if self.is_global:
            return ceil(self.write_end)
        gap_avail = Fraction(self.depth_p - self.depth_c + 1)
        gap_rate = self.write_end + 1 - self.depth_c - self.drain
        return ceil(max(gap_avail, gap_rate))

    @property
    def window_steps(self) -> int:
        """Rows of the unpruned availability family: the consumer's read
        window on a grid fine enough to hit every demand kink."""
        return int(self.drain * lcm(self.in_rate.denominator, self.drain.denominator))

    @property
    def max_floor_offset(self) -> int | None:
        """Largest offset whose peak is still ``peak(min_offset)``, or None
        when every larger offset keeps it. ``peak`` is flat only where it is
        clamped. At V it stays there. It is never clamped at 0 on a feasible
        offset: a local consumer starts overwriting a cycle after the first
        write at the earliest, so b1 >= out_rate. In between, b1 and b2
        rise strictly, so ``min_offset`` is the only optimal offset."""
        return None if self.peak(self.min_offset) == self.volume else self.min_offset

    def peak(self, d: int) -> Fraction:
        """Exact peak occupancy at a feasible offset ``d``, nondecreasing in
        ``d``: min(V, max(b1, b2)) with b1 = out_rate*(t_o - w_p), the fill
        when overwriting begins, and b2 = V - in_rate*(e_p - t_o), the fill
        when writing ends. Every feasible Global offset saturates at V."""
        t_o = d + self.overwrite_delay
        b1 = self.out_rate * (t_o - self.depth_p)
        b2 = self.volume - self.in_rate * (self.write_end - t_o)
        return max(_ZERO, min(self.volume, max(b1, b2)))


def edge_models(graph: PipelineGraph) -> list[EdgeModel]:
    """One ``EdgeModel`` per edge, in ``graph.edges`` order."""
    models = []
    for e in graph.edges:
        p, c = graph.stage(e.producer), graph.stage(e.consumer)
        v = Fraction(graph.edge_volume[e])
        out_rate, in_rate = p.throughputs().tau_out, c.throughputs().tau_in
        models.append(EdgeModel(
            edge=e, key=edge_key(e), volume=v, out_rate=out_rate, in_rate=in_rate,
            depth_p=p.stage_depth, depth_c=c.stage_depth,
            dur_p=v / out_rate, dur_c=graph.duration[e.consumer], drain=v / in_rate,
            is_global=c.dependency_class == GLOBAL,
        ))
    return models


def default_horizon(graph: PipelineGraph) -> int:
    """Start-cycle search window: 4x the summed active durations."""
    return ceil(4 * sum(graph.duration.values()))


def earliest_starts(graph: PipelineGraph, horizon: int) -> dict[str, int]:
    """Cascaded earliest feasible start per stage; error if past the horizon."""
    starts: dict[str, int] = {}
    models = edge_models(graph)
    for sid in graph.topo_order:
        lo = max(
            [0] + [starts[m.edge.producer] + m.min_offset
                   for m in models if m.edge.consumer == sid]
        )
        if lo > horizon:
            raise ScheduleError(
                f"stage {sid!r} cannot start before cycle {lo}, past horizon {horizon}; "
                "raise the horizon"
            )
        starts[sid] = lo
    return starts


@dataclass
class ConstraintSystem:
    """Linear rows over start cycles, overwrite starts, and buffer sizes."""

    graph: PipelineGraph
    pruned: bool
    horizon: int
    problem: Problem
    edges: list[EdgeModel]
    start_var: dict[str, int]
    overwrite_var: dict[Edge, int]
    buffer_var: dict[Edge, int]
    row_labels: list[str]
    earliest: dict[str, int]   # cascaded earliest starts, a feasible schedule

    @property
    def constraint_count(self) -> int:
        return len(self.row_labels)


def build_constraints(
    graph: PipelineGraph, pruned: bool = True, horizon: int | None = None
) -> ConstraintSystem:
    """Emit the schedule feasibility and buffer-size rows for ``graph``.

    Pruned mode emits only the two dependency endpoint rows per local edge;
    unpruned mode emits the full per-timestamp availability family over each
    consumer's read window (on a grid fine enough to hit every rate kink),
    which is equivalent but far larger. Buffer rows are the two peak
    branches in both modes.
    """
    if horizon is None:
        horizon = default_horizon(graph)
    earliest = earliest_starts(graph, horizon)  # raises if past the horizon

    models = edge_models(graph)
    prob = Problem()
    labels: list[str] = []
    start_var: dict[str, int] = {}
    overwrite_var: dict[Edge, int] = {}
    buffer_var: dict[Edge, int] = {}

    for s in graph.stages:
        # The cascade bound is implied by the dependency rows; installing
        # it as a variable bound just tightens the relaxation.
        start_var[s.id] = prob.add_variable(
            f"start[{s.id}]", lower=earliest[s.id], upper=horizon, integer=True
        )
        labels.append(f"start-nonnegative[{s.id}]")

    for m in models:
        e, key = m.edge, m.key
        sp = start_var[e.producer]
        sc = start_var[e.consumer]
        to_var = prob.add_variable(f"overwrite[{key}]", lower=0)
        lb_var = prob.add_variable(f"buffer[{key}]", lower=0, objective=1)
        overwrite_var[e] = to_var
        buffer_var[e] = lb_var

        if m.is_global:
            # Consumer may not start until the producer finished writing.
            prob.add_ge({sc: 1, sp: -1}, m.write_end)
            labels.append(f"dep-global[{key}]")
            # Overwrite waits for the global consumer's completion.
            prob.add_ge({to_var: 1, sc: -1}, m.overwrite_delay)
            labels.append(f"overwrite-start[{key}]")
            # Full buffering is forced; the peak is the whole volume.
            prob.add_ge({lb_var: 1}, m.volume)
            labels.append(f"buffer-full[{key}]")
            continue

        # Availability boundary: first readable element appears one cycle
        # after the producer's first write.
        prob.add_ge({sc: 1, sp: -1}, Fraction(m.depth_p - m.depth_c + 1))
        labels.append(f"dep-start[{key}]")

        if pruned:
            # Window endpoint: supply covers the edge volume by the time the
            # consumer's cumulative demand saturates.
            rhs = m.volume - m.out_rate * (m.depth_c + m.drain - 1 - m.depth_p)
            prob.add_ge({sc: m.out_rate, sp: -m.out_rate}, rhs)
            labels.append(f"dep-end[{key}]")
        else:
            # Per-timestamp family over the consumer read window, offset
            # from the consumer's start on a grid hitting every demand kink.
            steps = m.window_steps
            for n in range(1, steps + 1):
                off = m.depth_c + m.drain * Fraction(n, steps)
                demand = min(m.volume, m.in_rate * (off - m.depth_c))
                rhs = demand - m.out_rate * (off - 1 - m.depth_p)
                prob.add_ge({sc: m.out_rate, sp: -m.out_rate}, rhs)
                labels.append(f"dep-t[{key}]@{off}")

        # Overwrite may start once the consumer can retire data.
        prob.add_ge({to_var: 1, sc: -1}, m.overwrite_delay)
        labels.append(f"overwrite-start[{key}]")

        # Peak occupancy (``EdgeModel.peak``) via a binary saturation
        # selector; both selections over-approximate the peak and their
        # minimum equals it, so minimization lands exactly on the peak.
        z_var = prob.add_variable(f"saturated[{key}]", lower=0, upper=1, integer=True)
        # Large enough to disable a branch row anywhere in the bounded box.
        big_m = (
            max(m.out_rate, m.in_rate)
            * (horizon + m.depth_c + m.dur_c + m.dur_p + m.depth_p + 2)
            + m.volume
            + 1
        )
        # b1: occupancy when overwriting begins.
        prob.add_ge(
            {lb_var: 1, to_var: -m.out_rate, sp: m.out_rate, z_var: big_m},
            -m.out_rate * m.depth_p,
        )
        labels.append(f"buffer-peak-at-overwrite[{key}]")
        # b2: occupancy when writing ends.
        prob.add_ge(
            {lb_var: 1, to_var: -m.in_rate, sp: m.in_rate, z_var: big_m},
            m.volume - m.in_rate * m.write_end,
        )
        labels.append(f"buffer-peak-at-write-end[{key}]")
        prob.add_ge({lb_var: 1, z_var: -m.volume}, 0)
        labels.append(f"buffer-saturated[{key}]")
        # Redundant but selector-independent floor: the peak is
        # nondecreasing in the offset, so its value at the earliest feasible
        # offset bounds every schedule, and keeps relaxation bounds sharp
        # while the selectors are still fractional.
        prob.variables[lb_var].lower = m.peak(m.min_offset)

    return ConstraintSystem(
        graph=graph,
        pruned=pruned,
        horizon=horizon,
        problem=prob,
        edges=models,
        start_var=start_var,
        overwrite_var=overwrite_var,
        buffer_var=buffer_var,
        row_labels=labels,
        earliest=earliest,
    )


@dataclass
class ScheduleSolution:
    """Optimal start cycles plus the per-edge line-buffer allocation.

    Buffer sizes are exact rationals (integral for integer-rate pipelines).
    Multi-chunk fields are populated by ``schedule_chunks``.
    """

    start_cycles: dict[str, int]
    buffer_sizes: dict[str, Fraction]
    overwrite_starts: dict[str, Fraction]
    total_buffer: Fraction
    makespan: Fraction
    initiation_interval: Fraction | None = None
    bubbles: dict[str, Fraction] | None = None
    chunk_count: int = 1
    constraint_counts: dict[str, int] = field(default_factory=dict)
    horizon: int | None = None

    def to_json_dict(self, element_bytes: int | None = None) -> dict:
        doc: dict = {
            "start_cycles": dict(sorted(self.start_cycles.items())),
            "buffer_sizes": {k: _frac_to_json(v) for k, v in sorted(self.buffer_sizes.items())},
            "overwrite_starts": {
                k: _frac_to_json(v) for k, v in sorted(self.overwrite_starts.items())
            },
            "total_buffer": _frac_to_json(self.total_buffer),
            "makespan": _frac_to_json(self.makespan),
            "chunk_count": self.chunk_count,
            "constraint_counts": self.constraint_counts,
            "horizon": self.horizon,
        }
        if self.initiation_interval is not None:
            doc["initiation_interval"] = _frac_to_json(self.initiation_interval)
        if self.bubbles is not None:
            doc["bubbles"] = {k: _frac_to_json(v) for k, v in sorted(self.bubbles.items())}
        if element_bytes is not None:
            doc["element_bytes"] = element_bytes
            doc["buffer_bytes"] = {
                k: ceil(v) * element_bytes for k, v in sorted(self.buffer_sizes.items())
            }
            doc["total_buffer_bytes"] = sum(doc["buffer_bytes"].values())
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ScheduleSolution":
        return cls(
            start_cycles={k: int(v) for k, v in doc["start_cycles"].items()},
            buffer_sizes={k: _frac_from_json(v) for k, v in doc["buffer_sizes"].items()},
            overwrite_starts={
                k: _frac_from_json(v) for k, v in doc["overwrite_starts"].items()
            },
            total_buffer=_frac_from_json(doc["total_buffer"]),
            makespan=_frac_from_json(doc["makespan"]),
            initiation_interval=(
                _frac_from_json(doc["initiation_interval"])
                if "initiation_interval" in doc
                else None
            ),
            bubbles=(
                {k: _frac_from_json(v) for k, v in doc["bubbles"].items()}
                if "bubbles" in doc
                else None
            ),
            chunk_count=doc.get("chunk_count", 1),
            constraint_counts=doc.get("constraint_counts", {}),
            horizon=doc.get("horizon"),
        )

    def dumps(self, element_bytes: int | None = None) -> str:
        return json.dumps(self.to_json_dict(element_bytes), indent=2, sort_keys=True) + "\n"


def _solution_from_starts(
    graph: PipelineGraph, starts: dict[str, int], system: ConstraintSystem
) -> ScheduleSolution:
    buffers: dict[str, Fraction] = {}
    overwrites: dict[str, Fraction] = {}
    for m in system.edges:
        s_p, s_c = starts[m.edge.producer], starts[m.edge.consumer]
        buffers[m.key] = m.peak(s_c - s_p)
        overwrites[m.key] = s_c + m.overwrite_delay
    write_ends = [
        Fraction(starts[s.id] + s.stage_depth) + graph.duration[s.id]
        for s in graph.stages
    ]
    makespan = max(write_ends) - min(Fraction(v) for v in starts.values())
    return ScheduleSolution(
        start_cycles=dict(starts),
        buffer_sizes=buffers,
        overwrite_starts=overwrites,
        total_buffer=sum(buffers.values(), _ZERO),
        makespan=makespan,
        horizon=system.horizon,
    )


def _tree_starts(graph: PipelineGraph, models: list[EdgeModel]) -> dict[str, int] | None:
    """Least member of the optimal offset box (see the module docstring)
    when no stage has two producers, else None.

    Difference constraints are closed under componentwise min, so the box
    has a least member, the lexicographic minimum in every stage order. Two
    passes over the forest find it: the upper bounds lift each producer as
    far as its subtree needs, then the lower bounds push each consumer down
    the tree.
    """
    into: dict[str, EdgeModel] = {}
    for m in models:
        if m.edge.consumer in into:
            return None
        into[m.edge.consumer] = m
    need = {sid: 0 for sid in graph.topo_order}
    for sid in reversed(graph.topo_order):
        m = into.get(sid)
        if m is not None and (hi := m.max_floor_offset) is not None:
            p = m.edge.producer
            need[p] = max(need[p], need[sid] - hi)
    starts: dict[str, int] = {}
    for sid in graph.topo_order:
        m = into.get(sid)
        starts[sid] = need[sid] if m is None else max(
            need[sid], starts[m.edge.producer] + m.min_offset)
    # Declaration order, as the MILP's tie-break fills it: the order shows
    # wherever the start vector is printed.
    return {s.id: starts[s.id] for s in graph.stages}


def solve(system: ConstraintSystem) -> ScheduleSolution:
    """Exact optimum of the buffer-minimization program.

    Among all optimal schedules, returns the one with the lexicographically
    smallest start-cycle vector (stage declaration order), so repeated
    solves are bit-identical. A graph in which no stage has two producers
    gets that schedule in closed form (``_tree_starts``) whenever it fits
    the horizon. Every other graph gets it from one MILP that minimizes
    ``scale * base**n * total + sum(base**(n-1-i) * start_i)``: every peak
    is a multiple of ``1/scale``, so two totals differ by at least
    ``1/scale``, and every start lies in ``[0, horizon]``, so with
    ``base = horizon + 1`` the start terms sum to less than ``base**n``.
    """
    graph = system.graph
    starts = _tree_starts(graph, system.edges)
    if starts is not None and max(starts.values()) <= system.horizon:
        return _solution_from_starts(graph, starts, system)

    prob = system.problem.copy()
    buffers = [system.buffer_var[m.edge] for m in system.edges]
    # Seed the search with the earliest-start schedule: feasible by
    # construction, so its total is a valid optimum cutoff.
    greedy = system.earliest
    greedy_total = sum(
        (m.peak(greedy[m.edge.consumer] - greedy[m.edge.producer]) for m in system.edges),
        _ZERO,
    )
    prob.add_le({j: 1 for j in buffers}, greedy_total)

    # A local peak is 0, V, b1 = out_rate * integer or b2 = V - in_rate *
    # write_end + in_rate * integer; a Global peak is V, an integer.
    scale = lcm(*(
        d
        for m in system.edges if not m.is_global
        for d in (m.out_rate.denominator, m.in_rate.denominator,
                  (m.in_rate * m.write_end).denominator)
    ))
    base, n = system.horizon + 1, len(graph.stages)
    for j in buffers:
        prob.variables[j].objective = Fraction(scale * base**n)
    for i, s in enumerate(graph.stages):
        prob.variables[system.start_var[s.id]].objective = Fraction(base ** (n - 1 - i))

    try:
        sol = solve_milp(prob)
    except solver.NodeLimitError as exc:
        raise SearchLimitError(f"schedule optimization stopped: {exc}") from None
    if sol.status != solver.OPTIMAL:
        raise ScheduleError(f"schedule optimization {sol.status}")
    assert sol.values is not None
    starts = {s.id: int(sol.values[system.start_var[s.id]]) for s in graph.stages}
    solution = _solution_from_starts(graph, starts, system)
    optimum = sum((sol.values[j] for j in buffers), _ZERO)
    if solution.total_buffer != optimum:
        raise ScheduleError(
            f"internal inconsistency: recomputed total {solution.total_buffer} "
            f"!= solver optimum {optimum}"
        )
    return solution


def optimize(
    graph: PipelineGraph, pruned: bool = True, horizon: int | None = None
) -> ScheduleSolution:
    """Build constraints, solve, and attach pruned/unpruned row counts.

    The other mode's count is derived, not built: unpruned mode replaces
    each local edge's one endpoint row by ``window_steps`` rows.
    """
    system = build_constraints(graph, pruned=pruned, horizon=horizon)
    solution = solve(system)
    extra = sum(m.window_steps - 1 for m in system.edges if not m.is_global)
    rows = system.constraint_count
    solution.constraint_counts = (
        {"pruned": rows, "unpruned": rows + extra}
        if pruned
        else {"pruned": rows - extra, "unpruned": rows}
    )
    return solution


def schedule_chunks(
    solution: ScheduleSolution, graph: PipelineGraph, chunk_count: int
) -> ScheduleSolution:
    """Extend a single-chunk schedule to ``chunk_count`` back-to-back chunks.

    Chunk k of stage i starts at ``start_cycles[i] + k*interval``; the
    initiation interval is the longest stage duration, stretched if needed so
    saturated edges drain one chunk before the next one lands. Stages
    shorter than the interval idle for the difference at the top of every
    chunk; those are the reported bubbles. Per-edge peak occupancy is
    unchanged from the single-chunk solution.
    """
    if chunk_count < 1:
        raise ValueError("chunk_count must be >= 1")
    interval = max(graph.duration.values())
    for m in edge_models(graph):
        # Overwrite start relative to the producer's start, as in EdgeModel.
        t_o = solution.overwrite_starts[m.key] - solution.start_cycles[m.edge.producer]
        if t_o >= m.write_end:
            # Saturated edge: the next chunk's writes must never outrun the
            # previous chunk's frees.
            need = (t_o - m.depth_p) + max(_ZERO, m.drain - m.dur_p)
            interval = max(interval, need)

    bubbles = {
        s.id: interval - graph.duration[s.id] for s in graph.stages
    }
    return ScheduleSolution(
        start_cycles=dict(solution.start_cycles),
        buffer_sizes=dict(solution.buffer_sizes),
        overwrite_starts=dict(solution.overwrite_starts),
        total_buffer=solution.total_buffer,
        makespan=solution.makespan + (chunk_count - 1) * interval,
        initiation_interval=interval,
        bubbles=bubbles,
        chunk_count=chunk_count,
        constraint_counts=dict(solution.constraint_counts),
        horizon=solution.horizon,
    )
