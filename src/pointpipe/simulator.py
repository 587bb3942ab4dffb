"""Token-level checker for pipeline schedules.

Moves counted tokens, not point data: each stage writes at its output rate
once its pipeline depth has filled, and each edge buffer frees tokens at the
consumer's read rate from the edge's overwrite-start time. All bookkeeping
is exact integer arithmetic at each edge's own scale (below), evaluated at
every breakpoint of the piecewise linear token curves, so measured peaks,
stalls, and overflows are exact rather than sampled.

The three per-edge cumulative curves:

- writes(t):  producer output landing in the buffer
- demand(t):  tokens the consumer must have been able to read by t; a token
  written at cycle x is readable from cycle x+1
- frees(t):   tokens retired (overwritable), never ahead of writes

A stall is any instant where demand exceeds readable supply; an overflow is
any instant where writes - frees exceeds the edge's allocated capacity. A
consumer of Global kind must not start before its producer finishes
writing; that check replaces the rate comparison on such edges. An
overwrite start before the consumer retires data (``overwrite_delay``
after the consumer's start) is a stall of the consumer too, once a chunk:
the frees would count data the consumer has not read.

**One integer record per edge.** ``edge_ticks`` turns an edge's
``EdgeModel``, the stages' starts, the edge's overwrite start and the
initiation interval (II) into ``EdgeTicks``, and the stall check, the peak
scan, ``SimTrace.occupancy_at``, the breakpoints of ``SimTrace.sample_rows``
and the oracle's scoring all read that record alone. It counts in the
graph's units (``PipelineGraph``), ticks of 1/T cycle and units of 1/L
token, so writes, raw frees, readable supply, demand, occupancies and stall
margins at an integer tick are integers. Every time the graph fixes is a
multiple of |out - in| ticks, out and in being the edge's rates in units a
tick. A schedule read from a file may put an overwrite start off such a
multiple, or II off a tick; then that edge's record takes a finer tick, T
times the least factor that puts both back. Only what ``SimTrace`` hands
out leaves the integers: peaks and chunk completions as ``Fraction``s, row
values as JSON numbers, and the cycles of stalls and overflows as ceilings
of ticks over T.

Those multiples put the roots on ticks too. Chunk 0's occupancy is max(0,
f), f = writes - raw frees, both clamped ramps. Between consecutive ends
among write_start, write_end, overwrite_start and drain_end, f is linear;
it can cross 0 strictly inside such a piece only where both ramp, at r =
(out*ws - in*ow) / (out - in) ticks (ws = write_start, ow =
overwrite_start). Where writes are 0 or V, or the raw frees are 0 or V, f
reaches 0 only at one of the four ends. ws and ow are multiples of |out -
in|, so r is an integer. Every breakpoint of every chunk is thus an
integer tick, and between two consecutive integer ticks each chunk's
occupancy, and any sum of them, is linear: ``occupancy_at`` reads a time
between ticks off the line through the two.

Chunk k runs chunk 0's curves shifted by k*II, so each edge keeps chunk 0's
curves alone: chunk k's value at t is chunk 0's at t - k*II, and its stall
is chunk 0's, k*II later. A chunk's occupancy is zero up to its write start
and from its drain end on, for any overwrite start, so at time t only the
chunks with ``write_start + k*II <= t <= drain_end + k*II`` are live, and
an edge's occupancy is summed over those alone (``_live``).

**The peak scan skips the roots.** A root r is a convex kink of max(0, f):
f crosses 0 there and max(0, f) bends upward, so the slope just left of r
is at most the slope just right of it. Let S be the summed occupancy and
M > 0 its largest value, first reached at t*. S is continuous, piecewise
linear, and below M just before t*, so its slope just left of t* is
positive and t* is a kink of some chunk. A chunk's kinks are its ends in
[write_start, drain_end] (outside it the occupancy is 0 nearby) and its
root. Suppose no chunk has such an end at t*. Then each chunk with a kink
there has its root there, a convex kink, and every other chunk is linear
through t*; so the slope of S just right of t* is at least the one just
left of it, S exceeds M just after t*, and M is not its largest value. So
t* is some chunk's kept end (a root may lie there too), and the scan reads
the four ends alone. When S is 0 throughout, the peak and its time are
both 0.

**The peak scan is bounded in the chunk count.** Let D = drain_end -
write_start and, for II > 0, m = floor(D / II). Chunk 0's occupancy is
never negative, zero outside [write_start, drain_end] and linear between
the kinks that lie in it; an end outside it (an overwrite start before the
write start, say) is not a kink of the occupancy and is dropped. Take a
kept end x and the scan point t = x + k*II. Chunk j is live at t only if
write_start < x + (k-j)*II < drain_end, so |k - j| * II < D and
|k - j| <= m: the occupancy at t is chunk 0's at x + i*II summed over the
i in [-m, m] with 0 <= k - i < C, C being the chunk count. For k >= m
those i only shrink as k grows, so no shift past m gives a higher
occupancy than shift m does, and it comes later. By the paragraph above,
the summed occupancy first reaches its peak at some chunk's kept end, so
the shifts 0 to m give both the peak and the earliest time it is reached,
which times an overflow: m + 1 shifts, 2 of 32 when m = 1. At II <= 0
every shift is scanned.

**Trace rows are swept, not sampled.** Let B be the set of chunk 0's kept
kinks (its kept ends, and its root where that lies inside both ramps) moved
by k*II, for every k < C. Chunk k's occupancy is chunk 0's moved k*II
later: zero outside [write_start + k*II, drain_end + k*II], whose ends are
in B, and linear between its kept kinks moved by k*II, which are in B too.
Writes and frees are clamped ramps, so every occupancy is continuous. A sum
of such functions is linear on each closed piece [b, b'] between
consecutive points of B, and zero before min B and from max B on (B is
empty, and the occupancy zero, when drain_end < write_start). That holds
for any II: at II = 0, B is chunk 0's kept kinks and the sum is C times
chunk 0's occupancy; at II < 0, min B is the last chunk's write start.
``sample_rows`` evaluates ``_live`` once at each point of B, in ticks, and
writes the line through a piece's two end values as (A + S*t) / D, with
integers A, S and D and t in cycles. An integer cycle t with b <= t*T < b'
reads that line, which equals the summed occupancy at t because the sum is
linear on [b, b'], ends included. Points of B need not be whole cycles: an
integer cycle between two of them reads the line between them, and a piece
with no integer cycle in it is read by none. The stride only picks the
cycles; they grow, so each edge's cursor over its pieces only moves
forward, and every edge's cursor moves with the cycle. A row costs one
integer multiply-add and one gcd.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, gcd, inf, lcm

from .graph import PipelineGraph
from .optimizer import EdgeModel, ScheduleSolution, _frac_to_json, edge_key, edge_models


@dataclass(frozen=True, slots=True)
class EdgeTicks:
    """One edge's curves in integers (see the module docstring): times and
    the initiation interval in 1/``ticks`` cycles, volume in 1/``unit``
    tokens, and rates in 1/``unit`` tokens per tick.
    ``d`` moves the consumer side (demand, overwrite and consumer starts,
    drain end) that many ticks later."""

    write_start: int
    write_end: int
    overwrite_start: int
    drain_end: int
    demand_start: int
    consumer_start: int
    interval: int
    out_rate: int
    in_rate: int
    volume: int
    ticks: int
    unit: int
    is_global: bool

    def occupancy(self, t: int, d: int = 0) -> int:
        """Chunk 0's writes minus frees at ``t``: max(0, writes - raw
        frees), both clamped to [0, volume]. Clamping the writes below and
        the raw frees above changes nothing: where either binds, the
        difference is at most 0."""
        w = min(self.out_rate * (t - self.write_start), self.volume)
        f = max(self.in_rate * (t - self.overwrite_start - d), 0)
        return w - f if w > f else 0

    def stall(self, d: int = 0) -> int | None:
        """The earliest time of the worst negative stall margin (readable
        supply minus demand), or None if the margin never falls below 0. A
        Global consumer instead needs every token written at its start."""
        out, inn, v, one = self.out_rate, self.in_rate, self.volume, self.ticks
        ws, ds = self.write_start, self.demand_start + d
        if self.is_global:
            t = self.consumer_start + d
            return t if out * (t - ws) < v else None
        worst, when = 0, None
        for t in sorted({ws + one, self.write_end + one, ds,
                         ds + self.drain_end - self.overwrite_start}):
            r = min(max(out * (t - one - ws), 0), v)
            margin = r - min(max(inn * (t - ds), 0), v)
            if margin < worst:
                worst, when = margin, t
        return when

    def kinks(self, roots: bool) -> list[int]:
        """Chunk 0's occupancy kinks in [write_start, drain_end], outside
        which the occupancy is zero; with ``roots``, also the point inside
        both ramps where writes cross the raw frees."""
        ws, we, ow, de = self.write_start, self.write_end, self.overwrite_start, self.drain_end
        pts = {t for t in (ws, we, ow, de) if ws <= t <= de}
        out, inn = self.out_rate, self.in_rate
        if roots and out != inn:
            root = (out * ws - inn * ow) // (out - inn)
            if max(ws, ow) < root < min(we, de):
                pts.add(root)
        return sorted(pts)


def edge_ticks(
    model: EdgeModel,
    starts: dict[str, int],
    overwrite: Fraction | int | None = None,
    interval: Fraction | int = 0,
) -> EdgeTicks:
    """One edge's record under ``starts`` and ``interval`` (see the module
    docstring). ``overwrite`` is the edge's absolute overwrite start; by
    default the earliest legal one, ``overwrite_delay`` after the
    consumer's start. Both are in cycles."""
    m = model
    one = m.ticks
    s_p, s_c = starts[m.edge.producer] * one, starts[m.edge.consumer] * one
    if overwrite is None:
        ow_n, ow_d = s_c + m.overwrite_delay, 1
    else:
        ow_n, ow_d = overwrite.numerator * one, overwrite.denominator
    ii_n, ii_d = interval.numerator * one, interval.denominator
    # The graph's ticks unless a schedule puts the overwrite start off a
    # multiple of |out - in| ticks, or the interval off a tick.
    step = ow_d * (abs(m.out_rate - m.in_rate) or 1)
    fine = lcm(step // gcd(ow_n, step), ii_d // gcd(ii_n, ii_d))
    ow = ow_n * fine // ow_d
    return EdgeTicks(
        (s_p + m.depth_p) * fine, (s_p + m.write_end) * fine, ow, ow + m.drain * fine,
        (s_c + m.depth_c) * fine, s_c * fine, ii_n * fine // ii_d,
        m.out_rate, m.in_rate, m.volume * fine, one * fine, m.unit * fine, m.is_global)


def _live(e: EdgeTicks, chunks: int, t: int) -> int:
    """Occupancy at tick ``t`` of one edge summed over ``chunks`` chunks,
    chunk k being chunk 0 shifted by k intervals; only the chunks live at
    ``t`` are evaluated, or every chunk when the interval is not
    positive."""
    ii = e.interval
    lo, hi = 0, chunks
    if ii > 0:
        lo = max(lo, -((e.drain_end - t) // ii))
        hi = min(hi, (t - e.write_start) // ii + 1)
    return sum(e.occupancy(t - k * ii) for k in range(lo, hi))


def _peak(e: EdgeTicks, chunks: int) -> tuple[int, int]:
    """(peak, earliest tick it is reached) of the summed occupancy, by the
    scan of the module docstring; (0, 0) when it is 0 throughout."""
    kinks = e.kinks(roots=False)
    ii = e.interval
    shifts = chunks
    if ii > 0 and kinks:
        # No shift past m reaches a higher occupancy (see above).
        shifts = min(chunks, (e.drain_end - e.write_start) // ii + 1)
    peak = peak_t = 0
    for t in sorted({x + k * ii for x in kinks for k in range(shifts)}):
        occ = _live(e, chunks, t)
        if occ > peak:
            peak, peak_t = occ, t
    return peak, peak_t


def _occupancy_pieces(e: EdgeTicks, chunks: int) -> list[tuple[int | float, int, int, int]]:
    """One edge's occupancy summed over ``chunks`` chunks as linear pieces
    in time order (see the module docstring): (first integer cycle after
    the piece, A, S, D), the occupancy at an integer cycle c on the piece
    being (A + S*c) / D. Zero pieces come before the first point and from
    the last on."""
    one, ii = e.ticks, e.interval
    pts = sorted({x + k * ii for x in e.kinks(roots=True) for k in range(chunks)})
    vals = [_live(e, chunks, t) for t in pts]
    pieces = [(-(-pts[0] // one), 0, 0, 1)] if pts else []
    for t0, v0, t1, v1 in zip(pts, vals, pts[1:], vals[1:]):
        # v0 + (v1 - v0) * (c*one - t0) / (t1 - t0), in 1/unit tokens.
        dt, dv = t1 - t0, v1 - v0
        pieces.append((-(-t1 // one), v0 * dt - dv * t0, dv * one, dt * e.unit))
    pieces.append((inf, 0, 0, 1))
    return pieces


@dataclass
class StallEvent:
    cycle: int
    stage: str
    cause: str


@dataclass
class OverflowEvent:
    cycle: int
    edge: str
    occupancy: Fraction
    capacity: Fraction


@dataclass
class SimTrace:
    """Exact per-edge occupancy record of one run."""

    edge_order: list[str]
    peaks: dict[str, Fraction]
    capacities: dict[str, Fraction]
    stall_events: list[StallEvent]
    overflow_events: list[OverflowEvent]
    completion_cycle: int
    makespan: Fraction
    chunk_completions: list[Fraction]
    first_read: dict[str, int]
    first_output: dict[str, int]
    _ticks: dict[str, EdgeTicks] = field(default_factory=dict, repr=False)

    @property
    def ok(self) -> bool:
        return not self.stall_events and not self.overflow_events

    def occupancy_at(self, key: str, t: Fraction | int) -> Fraction:
        """The summed occupancy at ``t``; between two integer ticks it is
        read off the line through them (see the module docstring)."""
        e = self._ticks[key]
        chunks = len(self.chunk_completions)
        t = Fraction(t)
        p, q = t.numerator * e.ticks, t.denominator
        a = p // q
        lo = _live(e, chunks, a)
        if a * q == p:
            return Fraction(lo, e.unit)
        hi = _live(e, chunks, a + 1)
        return Fraction(lo * q + (hi - lo) * (p - a * q), q * e.unit)

    def sample_rows(self, stride: int = 1):
        """Yield (cycle, edge, occupancy) rows at integer cycles, swept over
        each edge's linear pieces (see the module docstring); the occupancy
        is in lowest terms as JSON writes it, an int or "n/d"."""
        chunks = len(self.chunk_completions)
        edges = [(key, _occupancy_pieces(self._ticks[key], chunks))
                 for key in self.edge_order]
        at = [0] * len(edges)
        for cyc in range(0, self.completion_cycle + 1, stride):
            for j, (key, pieces) in enumerate(edges):
                i = at[j]
                while pieces[i][0] <= cyc:
                    i += 1
                at[j] = i
                _, a, b, den = pieces[i]
                yield cyc, key, _frac_to_json(a + b * cyc, den)

    def summary_dict(self) -> dict:
        return {
            "peaks": {k: _frac_to_json(v) for k, v in sorted(self.peaks.items())},
            "capacities": {k: _frac_to_json(v) for k, v in sorted(self.capacities.items())},
            "stalls": [
                {"cycle": s.cycle, "stage": s.stage, "cause": s.cause}
                for s in self.stall_events
            ],
            "overflows": [
                {
                    "cycle": o.cycle,
                    "edge": o.edge,
                    "occupancy": _frac_to_json(o.occupancy),
                    "capacity": _frac_to_json(o.capacity),
                }
                for o in self.overflow_events
            ],
            "completion_cycle": self.completion_cycle,
            "makespan": _frac_to_json(self.makespan),
            "chunk_completions": [_frac_to_json(c) for c in self.chunk_completions],
            "first_read": dict(sorted(self.first_read.items())),
            "first_output": dict(sorted(self.first_output.items())),
            "ok": self.ok,
        }


def simulate(
    graph: PipelineGraph,
    solution: ScheduleSolution,
    chunk_count: int = 1,
) -> SimTrace:
    """Run the token model and record stalls, overflows, and exact peaks.

    Violations are reported in the trace, never raised. ``solution`` holds
    a start cycle for every stage and a buffer size and overwrite start for
    every edge. ``chunk_count > 1`` requires the solution's initiation
    interval (see ``schedule_chunks``).
    """
    if chunk_count < 1:
        raise ValueError("chunk_count must be >= 1")
    if chunk_count > 1 and solution.initiation_interval is None:
        raise ValueError("multi-chunk simulation needs a chunked schedule")
    interval = solution.initiation_interval or 0
    starts = solution.start_cycles

    stall_events: list[StallEvent] = []
    overflow_events: list[OverflowEvent] = []
    peaks: dict[str, Fraction] = {}
    ticks_by_key: dict[str, EdgeTicks] = {}
    completion_cycle = 0
    one = graph.ticks

    for m in edge_models(graph):
        key = m.key
        e = ticks_by_key[key] = edge_ticks(m, starts, solution.overwrite_starts[key], interval)

        stalls = []
        when = e.stall()
        if when is not None:
            stalls.append((when, "producer incomplete at global consumer start" if e.is_global
                           else "consumer demand outruns readable supply"))
        # Overwriting may not begin before the consumer retires data.
        if e.overwrite_start * one < (starts[m.edge.consumer] * one + m.overwrite_delay) * e.ticks:
            stalls.append((e.overwrite_start, "overwrite starts before the consumer retires data"))
        stall_events.extend(
            StallEvent(cycle=-(-(when + k * e.interval) // e.ticks),
                       stage=m.edge.consumer, cause=cause)
            for when, cause in stalls for k in range(chunk_count)
        )

        peak, peak_t = _peak(e, chunk_count)
        peaks[key] = Fraction(peak, e.unit)

        capacity = solution.buffer_sizes[key]
        if peaks[key] > capacity:
            overflow_events.append(
                OverflowEvent(cycle=-(-peak_t // e.ticks), edge=key,
                              occupancy=peaks[key], capacity=capacity)
            )

        # The latest chunk's drain end.
        last = e.drain_end + max(0, (chunk_count - 1) * e.interval)
        completion_cycle = max(completion_cycle, -(-last // e.ticks))

    first_read = {s.id: starts[s.id] + 1 for s in graph.stages}
    # The first output element lands unit / out_rate ticks after the depth.
    first_output = {s.id: starts[s.id] + s.stage_depth
                    - (-graph.unit // (graph.out_rate[s.id] * one)) for s in graph.stages}
    last_write = max((starts[s.id] + s.stage_depth) * one + graph.duration[s.id]
                     for s in graph.stages)
    # Chunk k completes at last_write + k * ii_n / ii_d ticks.
    ii_n, ii_d = interval.numerator * one, interval.denominator
    chunk_completions = [Fraction(last_write * ii_d + k * ii_n, ii_d * one)
                         for k in range(chunk_count)]
    makespan = chunk_completions[-1] - min(starts.values())
    completion_cycle = max(completion_cycle, ceil(chunk_completions[-1]))

    return SimTrace(
        edge_order=[edge_key(e) for e in graph.edges],
        peaks=peaks,
        capacities=dict(solution.buffer_sizes),
        stall_events=sorted(stall_events, key=lambda s: (s.cycle, s.stage)),
        overflow_events=sorted(overflow_events, key=lambda o: (o.cycle, o.edge)),
        completion_cycle=completion_cycle,
        makespan=makespan,
        chunk_completions=chunk_completions,
        first_read=first_read,
        first_output=first_output,
        _ticks=ticks_by_key,
    )
