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
  per-timestamp family over the window gives the same bound). A Global
  consumer starts only after the producer has written everything.
- ``overwrite_delay``: overwriting may not begin before the consumer retires
  data, at its first-read-capable cycle on local edges and at its
  completion on Global edges; minimization drives the overwrite start to
  that bound.
- ``peak(d)``: the exact buffer occupancy peak, reached when overwriting
  starts or when the producer stops writing: ``min(V, g(d))`` with
  ``g = max(b1, b2)`` convex in d, with one bend where b1 and b2 cross.
  ``pieces`` is g on the integers, with integer kinks. Global edges hold
  V outright.

When no stage has two producers the graph is a forest: its edge offsets
are independent and the total is the sum of each edge's ``peak(d)``. Each
peak is least at ``min_offset`` and stays there up to ``max_floor_offset``
(unbounded once the buffer holds all of V), so the optimal schedules are
exactly the offset box ``min_offset <= s_c - s_p <= max_floor_offset`` with
every start >= 0. ``solve`` returns the box's least member, found in two
passes over the forest, with no saturated-set search.

Where paths reconverge (some stage has two or more producers), or when
that least member starts a stage past the horizon, only the cap at V keeps
the total from being convex in the starts. ``solve`` fixes the set Z of
edges that pay V; every other edge pays its ``pieces``, and the rest is
the convex-cost tension problem of min-register retiming (Leiserson and
Saxe, "Retiming Synchronous Circuitry", Algorithmica 1991). Each set Z is
solved in ints: a min-cost circulation, the problem's dual, gives Z's
optimum, and one longest-path pass gives its least optimal starts (see
``solve``).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import ceil, gcd, lcm

from .graph import Edge, PipelineGraph, StageKind
from . import solver

# Most saturated-edge sets that ``solve`` solves for one graph. The
# generated test suites and the benchmark's DAG pool need at most 9. The
# four-diamond extension of the tests' ``DIAMOND_CHAIN`` (13 stages, 16
# edges, input_work 288) needs 9905, in about 1.7 CPU-s, or 0.17 ms a set
# (2 shared CPUs, Python 3.11), so the cap stops a search of that size
# after about 6 s.
MAX_SATURATED_SETS = 2**15


class ScheduleError(Exception):
    """Scheduling failed (no feasible start within the horizon, or the
    search ran out of its cap)."""


class SearchLimitError(ScheduleError):
    """The search solved ``MAX_SATURATED_SETS`` saturated-edge sets before
    it proved an optimum; unlike its parent, this says nothing about
    feasibility."""


def edge_key(e: Edge) -> str:
    return f"{e.producer}->{e.consumer}"


def _frac_to_json(x: Fraction | int, den: int = 1) -> int | str:
    """x / den, den > 0, in lowest terms as JSON holds it: an int, or "n/d"."""
    n, d = x.numerator, x.denominator * den
    g = gcd(n, d)
    return n // g if g == d else f"{n // g}/{d // g}"


@dataclass(slots=True)
class EdgeModel:
    """One edge p -> c as the graph fixes it, and its buffer as a function
    of the start offset d = s_c - s_p alone, in the graph's units (see
    ``PipelineGraph``): times in ticks of 1/``ticks`` cycle, amounts in
    units of 1/``unit`` element, rates in units per tick. Offsets are whole
    cycles.

    Times below are relative to the producer's start: the producer writes
    from ``depth_p`` to ``write_end`` and the consumer's overwriting starts
    at ``d + overwrite_delay``.
    """

    edge: Edge
    key: str
    volume: int              # V
    out_rate: int            # producer write rate
    in_rate: int             # consumer read rate
    depth_p: int
    depth_c: int
    dur_p: int               # producer active ticks (volume / out_rate)
    dur_c: int               # consumer active ticks (U_c / in_rate)
    drain: int               # ticks to retire this edge's volume (V / in_rate)
    is_global: bool
    ticks: int
    unit: int
    write_end: int = field(init=False)
    overwrite_delay: int = field(init=False)   # from the consumer's start
    min_offset: int = field(init=False)
    branches: tuple[tuple[int, int], ...] = field(init=False)
    max_floor_offset: int | None = field(init=False)

    def __post_init__(self) -> None:
        one = self.ticks
        self.write_end = self.depth_p + self.dur_p
        self.overwrite_delay = self.depth_c + (self.dur_c if self.is_global else 0)
        # Earliest feasible consumer-minus-producer start offset.
        if self.is_global:
            least = self.write_end
        else:
            least = max(self.depth_p - self.depth_c + one,
                        self.write_end + one - self.depth_c - self.drain)
        self.min_offset = -(-least // one)
        # (slope per cycle, value at d = 0) of each line whose maximum is
        # ``g``: b1 = out_rate*(t_o - w_p), the fill when overwriting begins
        # at t_o = d + ``overwrite_delay``, and b2 = V - in_rate*(e_p -
        # t_o), the fill when writing ends.
        delay = self.overwrite_delay
        self.branches = (
            (self.out_rate * one, self.out_rate * (delay - self.depth_p)),
            (self.in_rate * one, self.volume - self.in_rate * (self.write_end - delay)))
        # The largest offset whose peak is still ``peak(min_offset)``, or
        # None when every larger offset keeps it. ``peak`` is flat only
        # where it is clamped. At V it stays there. It is never clamped at
        # 0 on a feasible offset: a local consumer starts overwriting a
        # cycle after the first write at the earliest, so b1 >= out_rate. In
        # between, b1 and b2 rise strictly, so ``min_offset`` is the only
        # optimal offset.
        self.max_floor_offset = (
            None if self.peak(self.min_offset) == self.volume else self.min_offset)

    def g(self, d: int) -> int:
        """The peak at offset ``d`` before it is clamped to [0, V]."""
        return max(slope * d + at0 for slope, at0 in self.branches)

    def peak(self, d: int) -> int:
        """Exact peak occupancy at a feasible offset ``d``, nondecreasing in
        ``d``: min(V, g(d)). Every feasible Global offset saturates at V."""
        return max(0, min(self.volume, self.g(d)))

    @property
    def pieces(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``g`` on the integers from ``min_offset`` up, as ``solver.Tension``
        takes it: its kinks, which are integers, and its slopes,
        ``slopes[0]`` up to ``kinks[0]`` and so on.

        g bends once, from the smaller rate to the larger, where b1 and b2
        cross, at c = (a2 - a1) / (s1 - s2). An integer c is the one kink.
        Else the chord through g(k) and g(k + 1), k = floor(c), replaces g
        between them: it agrees with g at every integer, and its slope, the
        larger rate times k + 1 - c plus the smaller times c - k, lies
        strictly between them, so the slopes rise strictly. Parallel lines
        give no kink.
        Kinks at or below ``min_offset`` go with the slopes before them."""
        (s1, a1), (s2, a2) = self.branches
        if s1 == s2:
            return (), (s1,)
        k, off = divmod(a2 - a1, s1 - s2)
        lo, hi = sorted((s1, s2))
        if not off:
            kinks, slopes = [k], [lo, hi]
        else:
            kinks, slopes = [k, k + 1], [lo, self.g(k + 1) - self.g(k), hi]
        cut = sum(kink <= self.min_offset for kink in kinks)
        return tuple(kinks[cut:]), tuple(slopes[cut:])


def edge_models(graph: PipelineGraph) -> list[EdgeModel]:
    """One ``EdgeModel`` per edge, in ``graph.edges`` order."""
    one, unit = graph.ticks, graph.unit
    models = []
    for e in graph.edges:
        p, c = graph.stage(e.producer), graph.stage(e.consumer)
        v = graph.edge_volume[e] * unit
        in_rate = graph.in_rate[c.id]
        models.append(EdgeModel(
            edge=e, key=edge_key(e), volume=v, out_rate=graph.out_rate[p.id],
            in_rate=in_rate, depth_p=p.stage_depth * one, depth_c=c.stage_depth * one,
            dur_p=graph.duration[p.id], dur_c=graph.duration[c.id], drain=v // in_rate,
            is_global=c.kind is StageKind.GLOBAL, ticks=one, unit=unit,
        ))
    return models


def default_horizon(graph: PipelineGraph) -> int:
    """Start-cycle search window: 4x the summed active durations."""
    return -(-4 * sum(graph.duration.values()) // graph.ticks)


def earliest_starts(
    graph: PipelineGraph, models: list[EdgeModel], horizon: int
) -> dict[str, int]:
    """Cascaded earliest feasible start per stage under ``graph``'s edge
    ``models``, one per edge in ``graph.edges`` order; error if past the
    horizon."""
    starts: dict[str, int] = {}
    for sid in graph.topo_order:
        lo = max([0] + [starts[models[i].edge.producer] + models[i].min_offset
                        for i in graph.in_edges[sid]])
        if lo > horizon:
            raise ScheduleError(
                f"stage {sid!r} cannot start before cycle {lo}, past horizon {horizon}; "
                "raise the horizon"
            )
        starts[sid] = lo
    return starts


@dataclass
class ConstraintSystem:
    """What ``solve`` reads of one graph: each edge's model and the start
    box ``[earliest, horizon]``."""

    graph: PipelineGraph
    horizon: int
    edges: list[EdgeModel]
    earliest: dict[str, int]   # cascaded earliest starts, a feasible schedule

    @property
    def constraint_count(self) -> int:
        """Rows of the linear program this system once fed: a start bound
        per stage, 3 rows per Global edge and 6 per local edge. No solver
        builds that program and no output reports the count. It stays
        because ``bench/tracing.py`` records it as
        ``optimizer.build_constraints.rows``, and ``bench/run.py``'s solve
        sweep calls ``build_constraints`` and ``solve`` directly."""
        return len(self.graph.stages) + sum(3 if m.is_global else 6 for m in self.edges)


def build_constraints(graph: PipelineGraph, horizon: int | None = None) -> ConstraintSystem:
    """The edge models and start box of ``graph``; raises if a stage cannot
    start within the horizon."""
    if horizon is None:
        horizon = default_horizon(graph)
    models = edge_models(graph)
    return ConstraintSystem(graph, horizon, models, earliest_starts(graph, models, horizon))


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
    def from_json_dict(cls, doc: object) -> "ScheduleSolution":
        """The schedule ``to_json_dict`` wrote. Raises KeyError for a missing
        key and ValueError for any other departure: a start cycle must be a
        JSON integer, and an amount an integer or a string "n" or "n/d" of
        integers, as ``_frac_to_json`` writes it."""
        if not isinstance(doc, dict):
            raise ValueError("a schedule must be a JSON object")

        def amount(value: object, where: str) -> Fraction:
            # The pattern keeps out exponents ("1e9999999" takes seconds) and d = 0.
            if type(value) is int or (
                    type(value) is str and re.fullmatch(r"-?\d+(/\d*[1-9]\d*)?", value)):
                return Fraction(value)
            raise ValueError(f"{where} must be an integer or an \"n/d\" string, "
                             f"got {json.dumps(value)}")

        def start(value: object, where: str) -> int:
            if type(value) is not int:
                raise ValueError(f"{where} must be an integer, got {json.dumps(value)}")
            return value

        def table(key: str, read) -> dict:
            if not isinstance(doc[key], dict):
                raise ValueError(f"{key} must be an object")
            return {k: read(v, f"{key}[{json.dumps(k)}]") for k, v in doc[key].items()}

        return cls(
            start_cycles=table("start_cycles", start),
            buffer_sizes=table("buffer_sizes", amount),
            overwrite_starts=table("overwrite_starts", amount),
            total_buffer=amount(doc["total_buffer"], "total_buffer"),
            makespan=amount(doc["makespan"], "makespan"),
            initiation_interval=(amount(doc["initiation_interval"], "initiation_interval")
                                 if "initiation_interval" in doc else None),
            bubbles=table("bubbles", amount) if "bubbles" in doc else None,
            chunk_count=doc.get("chunk_count", 1),
            horizon=doc.get("horizon"),
        )

    def dumps(self, element_bytes: int | None = None) -> str:
        return json.dumps(self.to_json_dict(element_bytes), indent=2, sort_keys=True) + "\n"


def _solution_from_starts(
    graph: PipelineGraph, starts: dict[str, int], system: ConstraintSystem
) -> ScheduleSolution:
    one, unit = graph.ticks, graph.unit
    buffers: dict[str, Fraction] = {}
    overwrites: dict[str, Fraction] = {}
    total = 0  # units
    for m in system.edges:
        s_p, s_c = starts[m.edge.producer], starts[m.edge.consumer]
        peak = m.peak(s_c - s_p)
        total += peak
        buffers[m.key] = Fraction(peak, unit)
        overwrites[m.key] = Fraction(s_c * one + m.overwrite_delay, one)
    last_write = max((starts[s.id] + s.stage_depth) * one + graph.duration[s.id]
                     for s in graph.stages)
    return ScheduleSolution(
        start_cycles=dict(starts),
        buffer_sizes=buffers,
        overwrite_starts=overwrites,
        total_buffer=Fraction(total, unit),
        makespan=Fraction(last_write - min(starts.values()) * one, one),
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
    if any(len(ins) > 1 for ins in graph.in_edges.values()):
        return None
    into = {sid: models[ins[0]] for sid, ins in graph.in_edges.items() if ins}
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
    # Declaration order, as ``_search`` fills it: the order shows
    # wherever the start vector is printed.
    return {s.id: starts[s.id] for s in graph.stages}


class _SaturatedSets:
    """The problems of one system's saturated sets (see ``solve``). Every
    amount is in the graph's units, so a set is solved and priced in ints
    alone."""

    def __init__(self, system: ConstraintSystem):
        models, stages = system.edges, system.graph.stages
        at = {s.id: k for k, s in enumerate(stages)}
        self.rising = [i for i, m in enumerate(models) if m.max_floor_offset is not None]
        self.volume = [m.volume for m in models]
        self.fixed = sum(m.volume for m in models if m.max_floor_offset is None)
        self.rise = {i: models[i].volume - models[i].peak(models[i].min_offset)
                     for i in self.rising}
        self.bare = [solver.Tension(at[m.edge.producer], at[m.edge.consumer], m.min_offset)
                     for m in models]
        self.priced = {}
        for i in self.rising:
            kinks, slopes = models[i].pieces
            self.priced[i] = replace(self.bare[i], kinks=kinks, slopes=slopes)
        self.lower = [system.earliest[s.id] for s in stages]
        self.upper = [system.horizon] * len(stages)

    def solve(self, saturated: tuple[int, ...]) -> tuple[int, list[int]]:
        """The optimal total, in units, of the set ``saturated`` and its least
        optimal start vector, in declaration order. Edges in the set and
        edges that never rise pay V and keep only their ``min_offset`` row;
        every other edge pays ``g``, priced by its ``pieces``."""
        arcs = list(self.bare)
        free = [i for i in self.rising if i not in saturated]
        for i in free:
            arcs[i] = self.priced[i]
        x = solver.least_optimal(self.lower, self.upper, arcs)
        total = self.fixed + sum(self.volume[i] for i in saturated)
        for i in free:
            # g at min_offset, then the pieces' cost, which is g's rise.
            arc = arcs[i]
            total += self.volume[i] - self.rise[i] + arc.cost(x[arc.head] - x[arc.tail])
        return total, x


def _search(system: ConstraintSystem) -> tuple[dict[str, int], int]:
    """Least optimal start vector and the optimal total in units, over the
    saturated sets in order of size (see ``solve``)."""
    sets = _SaturatedSets(system)
    rising, rise = sets.rising, sets.rise
    # Every total is at least each peak at its edge's least offset.
    least = sets.fixed + sum(sets.volume[i] - rise[i] for i in rising)
    best: tuple[int, list[int]] | None = None
    level: list[tuple[int, ...]] = [()]
    solved = 0
    while level:
        children = []
        for z in level:
            if best is not None and least + sum(rise[i] for i in z) > best[0]:
                continue
            if solved == MAX_SATURATED_SETS:
                raise SearchLimitError(
                    f"schedule optimization stopped: {solved} saturated-edge sets "
                    "solved without proving an optimum"
                )
            solved += 1
            found = sets.solve(z)
            best = found if best is None else min(best, found)
            # Each set is reached once, from the set without its last edge.
            # A skipped set's extensions are not made: their bounds are
            # higher still.
            children += [z + (i,) for i in rising if not z or i > z[-1]]
        level = children
    assert best is not None
    optimum, vector = best
    stages = system.graph.stages
    return {s.id: v for s, v in zip(stages, vector)}, optimum


def solve(system: ConstraintSystem) -> ScheduleSolution:
    """Exact optimum of the buffer-minimization program.

    Among all optimal schedules, returns the one with the lexicographically
    smallest start-cycle vector (stage declaration order), so repeated
    solves are bit-identical. A graph in which no stage has two producers
    gets that schedule in closed form (``_tree_starts``) whenever it fits
    the horizon.

    Every other graph is searched over the sets Z of rising edges (those
    with a ``max_floor_offset``) that pay V. With Z fixed, every other edge
    pays ``g``, which is convex and agrees with its ``pieces`` at the
    integers:

    - No Z undercuts the optimum, since each edge pays V or ``g``, at least
      its peak, and the optimum is reached by the Z of the edges whose
      ``g`` reaches V in an optimal schedule.
    - Z's problem is a convex-cost tension problem. Each free edge's cost
      is its ``pieces``, a convex piecewise-linear function of one start
      difference whose kinks are integers. The ``min_offset`` rows and the
      box [earliest, horizon] bound the starts. In the graph's units its
      slopes are ints, and ``solver.least_optimal``
      solves the dual, a min-cost circulation. The slopes are the
      capacities, and the kinks, the ``min_offset`` floors and the box
      bounds, all ints, are the costs.
    - By LP duality, a start vector is optimal for Z exactly when it meets
      the difference rows that complementary slackness sets with one
      optimal circulation: each free edge's offset held to the kink or
      piece that its flow prices, and each start held to its bound where
      its box arc carries flow. Difference rows are closed under
      componentwise min, so Z's optima have a least element, and one
      Bellman-Ford longest-path pass from ``earliest`` finds it. Every
      bound is an integer, so it is integral. The integer optima are
      among the relaxation's and reach its value, so it is also the least
      integer optimum, with no tiebreak objective.

    Every optimal schedule is among the optima of some Z that ties the
    optimum, so the lexicographically least optimal schedule is the least
    of those sets' least elements. The search adds and compares totals as
    ints in the graph's units. A set is skipped only when its bound
    (V on Z, each other edge's peak at ``min_offset``) is strictly above
    the best total found, so no tied set is lost. ``SearchLimitError`` is
    raised once ``MAX_SATURATED_SETS`` sets have been solved.
    """
    graph = system.graph
    starts = _tree_starts(graph, system.edges)
    if starts is not None and max(starts.values()) <= system.horizon:
        return _solution_from_starts(graph, starts, system)
    starts, units = _search(system)
    solution = _solution_from_starts(graph, starts, system)
    optimum = Fraction(units, graph.unit)
    if solution.total_buffer != optimum:
        raise ScheduleError(
            f"internal inconsistency: recomputed total {solution.total_buffer} "
            f"!= solver optimum {optimum}"
        )
    return solution


def optimize(graph: PipelineGraph, horizon: int | None = None) -> ScheduleSolution:
    """The least optimal schedule of ``graph`` (see ``solve``) with every
    start at most ``horizon``, by default ``default_horizon(graph)``."""
    return solve(build_constraints(graph, horizon=horizon))


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
    one = graph.ticks
    # Ticks times ``den``: whole for any overwrite start a schedule holds.
    den = lcm(*(x.denominator for x in solution.overwrite_starts.values()))
    interval = max(graph.duration.values()) * den
    for m in edge_models(graph):
        ow = solution.overwrite_starts[m.key]
        # Overwrite start past the producer's write start.
        t_o = (ow.numerator * one * (den // ow.denominator)
               - (solution.start_cycles[m.edge.producer] * one + m.depth_p) * den)
        if t_o >= m.dur_p * den:
            # Saturated edge: the next chunk's writes must never outrun the
            # previous chunk's frees.
            interval = max(interval, t_o + max(0, m.drain - m.dur_p) * den)
    step = Fraction(interval, den * one)
    return replace(
        solution,
        makespan=solution.makespan + (chunk_count - 1) * step,
        initiation_interval=step,
        bubbles={s.id: Fraction(interval - graph.duration[s.id] * den, den * one)
                 for s in graph.stages},
        chunk_count=chunk_count,
    )
