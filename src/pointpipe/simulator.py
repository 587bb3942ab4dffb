"""Token-level checker for pipeline schedules.

Moves counted tokens, not point data: each stage writes at its output rate
once its pipeline depth has filled, and each edge buffer frees tokens at the
consumer's read rate from the edge's overwrite-start time. All bookkeeping
is exact rational arithmetic evaluated at every breakpoint of the piecewise
linear token curves, so measured peaks, stalls, and overflows are exact
rather than sampled.

The three per-edge cumulative curves:

- writes(t):  producer output landing in the buffer
- demand(t):  tokens the consumer must have been able to read by t; a token
  written at cycle x is readable from cycle x+1
- frees(t):   tokens retired (overwritable), never ahead of writes

A stall is any instant where demand exceeds readable supply; an overflow is
any instant where writes - frees exceeds the edge's allocated capacity. A
consumer of Global kind must not start before its producer finishes
writing; that check replaces the rate comparison on such edges.

Chunk k runs chunk 0's curves shifted by k initiation intervals (II), so
each edge keeps chunk 0's curves alone: chunk k's value at t is chunk 0's
at t - k*II, and its stall is chunk 0's, k*II later. A chunk's occupancy is
zero up to its write start and from its drain end on, for any overwrite
start, so at time t only the chunks with
``write_start + k*II <= t <= drain_end + k*II`` are live, and an edge's
occupancy is summed over those alone (``_live_occupancy``).
``SimTrace.occupancy_at``, the peak scan below and the breakpoints of
``SimTrace.sample_rows`` use it.

**The peak scan is bounded in the chunk count.** Let D = drain_end -
write_start and, for II > 0, m = floor(D / II). Chunk 0's occupancy is
never negative, zero outside [write_start, drain_end] and linear between
the kinks that lie in it; a kink outside it (an overwrite start before the
write start, say) is not a kink of the occupancy and is dropped. Take a
kept kink x and the scan point t = x + k*II. Chunk j is live at t only if
write_start < x + (k-j)*II < drain_end, so |k - j| * II < D and
|k - j| <= m: the occupancy at t is chunk 0's at x + i*II summed over the
i in [-m, m] with 0 <= k - i < C, C being the chunk count. For k >= m
those i only shrink as k grows, so no shift past m gives a higher
occupancy than shift m does, and it comes later. The summed occupancy
first reaches its peak where it rises to it, at some chunk's kink, so the
shifts 0 to m give both the peak and the earliest time it is reached,
which times an overflow: m + 1 shifts, 2 of 32 when m = 1. At II <= 0
every shift is scanned.

**Trace rows are swept, not sampled.** Let B be the set of chunk 0's kept
kinks x moved by k*II, for every k < C. Chunk k's occupancy is chunk 0's
moved k*II later: zero outside [write_start + k*II, drain_end + k*II],
whose ends are in B, and linear between its kept kinks moved by k*II,
which are in B too. Writes and frees are clamped ramps, so every
occupancy is continuous. A sum of such functions is linear on each closed
piece [b, b'] between consecutive points of B, and zero before min B and
from max B on (B is empty, and the occupancy zero, when drain_end <
write_start). That holds for any II: at II = 0, B is chunk 0's kept kinks
and the sum is C times chunk 0's occupancy; at II < 0, min B is the last
chunk's write start. ``sample_rows`` evaluates ``_live_occupancy`` once at
each point of B and writes the line through a piece's two end values as
(A + S*t) / D, with integers A, S and D. An integer cycle t with b <= t < b'
reads that line, which equals the summed occupancy at t because the sum is
linear on [b, b'], ends included. Points of B need not be integers: an
integer cycle between two fractional points reads the line between them,
and a piece with no integer cycle in it is read by none. The stride only
picks the cycles; they grow, so each edge's cursor over its pieces only
moves forward, and every edge's cursor moves with the cycle. A row costs
one integer multiply-add and one ``Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, floor, inf, lcm

from .graph import PipelineGraph
from .optimizer import EdgeModel, ScheduleSolution, _frac_to_json, edge_key, edge_models

_ZERO = Fraction(0)


def _clamp(x: Fraction, lo: Fraction, hi: Fraction) -> Fraction:
    return lo if x < lo else hi if x > hi else x


@dataclass(frozen=True)
class EdgeCurves:
    """Closed-form token curves for one edge under one chunk's schedule."""

    key: str
    volume: Fraction
    out_rate: Fraction
    in_rate: Fraction
    write_start: Fraction      # producer start + producer depth
    write_end: Fraction
    demand_start: Fraction     # consumer start + consumer depth
    overwrite_start: Fraction
    consumer_start: Fraction
    is_global: bool

    def writes(self, t: Fraction) -> Fraction:
        return _clamp(self.out_rate * (t - self.write_start), _ZERO, self.volume)

    def readable(self, t: Fraction) -> Fraction:
        # One-cycle write-to-read latency.
        return _clamp(self.out_rate * (t - 1 - self.write_start), _ZERO, self.volume)

    def demand(self, t: Fraction) -> Fraction:
        return _clamp(self.in_rate * (t - self.demand_start), _ZERO, self.volume)

    def frees(self, t: Fraction) -> Fraction:
        raw = _clamp(self.in_rate * (t - self.overwrite_start), _ZERO, self.volume)
        return min(self.writes(t), raw)

    def occupancy(self, t: Fraction) -> Fraction:
        return self.writes(t) - self.frees(t)

    @property
    def drain_end(self) -> Fraction:
        return self.overwrite_start + self.volume / self.in_rate

    def occupancy_kinks(self) -> list[Fraction]:
        pts = [
            self.write_start,
            self.write_end,
            self.overwrite_start,
            self.drain_end,
        ]
        # The write clamp on frees can add sign-change roots of
        # writes - raw_frees between known kinks.
        pts = sorted(set(pts))
        roots: list[Fraction] = []
        for a, b in zip(pts, pts[1:]):
            fa = self.writes(a) - self.in_rate * (a - self.overwrite_start)
            fb = self.writes(b) - self.in_rate * (b - self.overwrite_start)
            if (fa < 0 < fb) or (fb < 0 < fa):
                roots.append(a + (b - a) * fa / (fa - fb))
        return sorted(set(pts + roots))

    def stall_kinks(self) -> list[Fraction]:
        return sorted(
            {
                self.write_start + 1,
                self.write_end + 1,
                self.demand_start,
                self.demand_start + self.volume / self.in_rate,
            }
        )


def edge_curves(
    model: EdgeModel,
    starts: dict[str, int],
    overwrite: Fraction | None = None,
) -> EdgeCurves:
    """Curves for one edge under ``starts``.

    ``overwrite`` is the edge's absolute overwrite start; by default the
    earliest legal one, ``overwrite_delay`` after the consumer's start.
    """
    s_p = Fraction(starts[model.edge.producer])
    s_c = Fraction(starts[model.edge.consumer])
    if overwrite is None:
        overwrite = s_c + model.overwrite_delay
    return EdgeCurves(
        key=model.key,
        volume=model.volume,
        out_rate=model.out_rate,
        in_rate=model.in_rate,
        write_start=s_p + model.depth_p,
        write_end=s_p + model.write_end,
        demand_start=s_c + model.depth_c,
        overwrite_start=overwrite,
        consumer_start=s_c,
        is_global=model.is_global,
    )


def _live_occupancy(
    curves: EdgeCurves, chunks: int, interval: Fraction, t: Fraction
) -> Fraction:
    """Occupancy at ``t`` of one edge summed over ``chunks`` chunks, chunk k
    being chunk 0's ``curves`` shifted by ``k * interval``; only the chunks
    live at ``t`` are evaluated, or every chunk when the interval is not
    positive."""
    lo, hi = 0, chunks
    if interval > 0:
        lo = max(lo, ceil((t - curves.drain_end) / interval))
        hi = min(hi, floor((t - curves.write_start) / interval) + 1)
    return sum((curves.occupancy(t - k * interval) for k in range(lo, hi)), _ZERO)


def _kept_kinks(curves: EdgeCurves) -> list[Fraction]:
    """The occupancy kinks in [write_start, drain_end], outside which the
    occupancy is zero."""
    return [t for t in curves.occupancy_kinks() if curves.write_start <= t <= curves.drain_end]


def _occupancy_pieces(
    curves: EdgeCurves, chunks: int, interval: Fraction
) -> list[tuple[int | float, int, int, int]]:
    """One edge's occupancy summed over ``chunks`` chunks as linear pieces
    in time order (see the module docstring): (first integer cycle after
    the piece, A, S, D), the occupancy at an integer cycle t on the piece
    being (A + S*t) / D. Zero pieces come before the first point and from
    the last on."""
    pts = sorted({t + k * interval for t in _kept_kinks(curves) for k in range(chunks)})
    vals = [_live_occupancy(curves, chunks, interval, t) for t in pts]
    pieces = [(ceil(pts[0]), 0, 0, 1)] if pts else []
    for t0, v0, t1, v1 in zip(pts, vals, pts[1:], vals[1:]):
        slope = (v1 - v0) / (t1 - t0)
        at0 = v0 - slope * t0
        den = lcm(slope.denominator, at0.denominator)
        pieces.append((ceil(t1), at0.numerator * (den // at0.denominator),
                       slope.numerator * (den // slope.denominator), den))
    pieces.append((inf, 0, 0, 1))
    return pieces


def edge_stall_margin(curves: EdgeCurves) -> tuple[Fraction, Fraction]:
    """(worst margin, time of worst margin); negative margin means a stall."""
    if curves.is_global:
        # Everything must be written before the consumer activates.
        margin = curves.writes(curves.consumer_start) - curves.volume
        return margin, curves.consumer_start
    worst = None
    worst_t = curves.demand_start
    for t in curves.stall_kinks():
        m = curves.readable(t) - curves.demand(t)
        if worst is None or m < worst:
            worst = m
            worst_t = t
    assert worst is not None
    return worst, worst_t


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
    _curves: dict[str, EdgeCurves] = field(default_factory=dict, repr=False)
    _interval: Fraction = field(default=_ZERO, repr=False)

    @property
    def ok(self) -> bool:
        return not self.stall_events and not self.overflow_events

    def occupancy_at(self, key: str, t: Fraction | int) -> Fraction:
        chunks = len(self.chunk_completions)
        return _live_occupancy(self._curves[key], chunks, self._interval, Fraction(t))

    def sample_rows(self, stride: int = 1):
        """Yield (cycle, edge, occupancy) rows at integer cycles, swept over
        each edge's linear pieces (see the module docstring)."""
        chunks = len(self.chunk_completions)
        edges = [(key, _occupancy_pieces(self._curves[key], chunks, self._interval))
                 for key in self.edge_order]
        at = [0] * len(edges)
        for cyc in range(0, self.completion_cycle + 1, stride):
            for j, (key, pieces) in enumerate(edges):
                i = at[j]
                while pieces[i][0] <= cyc:
                    i += 1
                at[j] = i
                _, a, b, den = pieces[i]
                yield cyc, key, Fraction(a + b * cyc, den)

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

    Violations are reported in the trace, never raised. ``chunk_count > 1``
    requires the solution's initiation interval (see ``schedule_chunks``).
    """
    if chunk_count < 1:
        raise ValueError("chunk_count must be >= 1")
    if chunk_count > 1 and solution.initiation_interval is None:
        raise ValueError("multi-chunk simulation needs a chunked schedule")
    interval = solution.initiation_interval or _ZERO
    starts = solution.start_cycles

    stall_events: list[StallEvent] = []
    overflow_events: list[OverflowEvent] = []
    peaks: dict[str, Fraction] = {}
    curves_by_key: dict[str, EdgeCurves] = {}
    end_of_run = _ZERO
    shifts = [k * interval for k in range(chunk_count)]  # chunk k's time shift

    for m in edge_models(graph):
        key = m.key
        cur = edge_curves(m, starts, overwrite=solution.overwrite_starts.get(key))
        curves_by_key[key] = cur

        margin, when = edge_stall_margin(cur)
        if margin < 0:
            cause = (
                "producer incomplete at global consumer start"
                if cur.is_global
                else "consumer demand outruns readable supply"
            )
            stall_events.extend(
                StallEvent(cycle=ceil(when + s), stage=m.edge.consumer, cause=cause)
                for s in shifts
            )

        kinks = _kept_kinks(cur)
        scanned = shifts
        if interval > 0 and kinks:
            # No shift past m reaches a higher occupancy (see above).
            scanned = shifts[: floor((cur.drain_end - cur.write_start) / interval) + 1]
        peak = _ZERO
        peak_t = _ZERO
        for t in sorted({t + s for t in kinks for s in scanned}):
            occ = _live_occupancy(cur, chunk_count, interval, t)
            if occ > peak:
                peak = occ
                peak_t = t
        peaks[key] = peak

        capacity = solution.buffer_sizes.get(key)
        if capacity is not None and peak > capacity:
            overflow_events.append(
                OverflowEvent(
                    cycle=ceil(peak_t), edge=key, occupancy=peak, capacity=capacity
                )
            )

        end_of_run = max(end_of_run, cur.drain_end + max(shifts))

    first_read: dict[str, int] = {}
    first_output: dict[str, int] = {}
    write_ends: list[Fraction] = []
    for s in graph.stages:
        w = Fraction(starts[s.id] + s.stage_depth)
        first_read[s.id] = starts[s.id] + 1
        first_output[s.id] = ceil(w + 1 / s.throughputs().tau_out)
        write_ends.append(w + graph.duration[s.id])
    chunk_completions = [
        max(write_ends) + k * interval for k in range(chunk_count)
    ]
    makespan = chunk_completions[-1] - min(Fraction(v) for v in starts.values())
    end_of_run = max(end_of_run, chunk_completions[-1])

    return SimTrace(
        edge_order=[edge_key(e) for e in graph.edges],
        peaks=peaks,
        capacities=dict(solution.buffer_sizes),
        stall_events=sorted(stall_events, key=lambda s: (s.cycle, s.stage)),
        overflow_events=sorted(overflow_events, key=lambda o: (o.cycle, o.edge)),
        completion_cycle=ceil(end_of_run),
        makespan=makespan,
        chunk_completions=chunk_completions,
        first_read=first_read,
        first_output=first_output,
        _curves=curves_by_key,
        _interval=interval,
    )
