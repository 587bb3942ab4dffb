"""The rate model in ``Fraction``s, as the program computed it before it
fixed one integer cycle unit and one token unit per graph: the reference
that the program's integers are checked against.

``tau_in``/``tau_out`` and ``derive`` are ``PipelineGraph``'s formulas and
``RefEdge`` is ``EdgeModel``, field for field, in cycles and elements. The
program holds the same quantities as ints at the graph's units:
``test_graph.test_integer_model_equals_the_fraction_reference`` checks
that each, divided by its unit, equals the value here. Nothing here reads
the program's durations, rates, units or models.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import ceil, floor, lcm

from pointpipe.graph import Edge, PipelineGraph, StageKind, StageSpec

_ZERO = Fraction(0)


def tau_in(spec: StageSpec) -> Fraction:
    """Unique input elements consumed per cycle (reuse divided out)."""
    return Fraction(spec.i_shape.elements, spec.reuse_total * spec.i_freq)


def tau_out(spec: StageSpec) -> Fraction:
    """Output elements produced per cycle."""
    return Fraction(spec.o_shape.elements, spec.o_freq)


def derive(graph: PipelineGraph) -> tuple[dict[str, int], dict[str, int], dict[str, Fraction]]:
    """(input volume, work, duration in cycles) of each stage: sources
    consume ``input_work``, every other stage its producers' summed work,
    W = U * tau_out / tau_in and D = U / tau_in."""
    volume: dict[str, int] = {}
    work: dict[str, int] = {}
    duration: dict[str, Fraction] = {}
    for sid in graph.topo_order:
        spec = graph.stage(sid)
        producers = [e.producer for e in graph.edges if e.consumer == sid]
        u = sum(work[p] for p in producers) if producers else graph.input_work
        w = Fraction(u) * tau_out(spec) / tau_in(spec)
        assert w.denominator == 1, sid
        volume[sid], work[sid] = u, int(w)
        duration[sid] = Fraction(u) / tau_in(spec)
    return volume, work, duration


@dataclass(frozen=True)
class RefEdge:
    """One edge p -> c and its buffer as a function of the start offset d
    = s_c - s_p, in cycles and elements (see ``optimizer.EdgeModel``)."""

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

    @cached_property
    def write_end(self) -> Fraction:
        return self.depth_p + self.dur_p

    @cached_property
    def overwrite_delay(self) -> Fraction:
        return self.depth_c + self.dur_c if self.is_global else Fraction(self.depth_c)

    @cached_property
    def min_offset(self) -> int:
        if self.is_global:
            return ceil(self.write_end)
        gap_avail = Fraction(self.depth_p - self.depth_c + 1)
        gap_rate = self.write_end + 1 - self.depth_c - self.drain
        return ceil(max(gap_avail, gap_rate))

    @cached_property
    def window_steps(self) -> int:
        return int(self.drain * lcm(self.in_rate.denominator, self.drain.denominator))

    @cached_property
    def max_floor_offset(self) -> int | None:
        return None if self.peak(self.min_offset) == self.volume else self.min_offset

    @cached_property
    def branches(self) -> tuple[tuple[Fraction, Fraction], ...]:
        delay = self.overwrite_delay
        return ((self.out_rate, self.out_rate * (delay - self.depth_p)),
                (self.in_rate, self.volume - self.in_rate * (self.write_end - delay)))

    def g(self, d: int | Fraction) -> Fraction:
        return max(slope * d + at0 for slope, at0 in self.branches)

    def peak(self, d: int) -> Fraction:
        return max(_ZERO, min(self.volume, self.g(d)))

    @cached_property
    def pieces(self) -> tuple[tuple[int, ...], tuple[Fraction, ...]]:
        (s1, a1), (s2, a2) = self.branches
        if s1 == s2:
            return (), (s1,)
        cross = (a2 - a1) / (s1 - s2)
        lo, hi = sorted((s1, s2))
        if cross.denominator == 1:
            kinks, slopes = [int(cross)], [lo, hi]
        else:
            k = floor(cross)
            kinks, slopes = [k, k + 1], [lo, self.g(k + 1) - self.g(k), hi]
        cut = sum(kink <= self.min_offset for kink in kinks)
        return tuple(kinks[cut:]), tuple(slopes[cut:])


def ref_models(graph: PipelineGraph) -> list[RefEdge]:
    """One ``RefEdge`` per edge, in ``graph.edges`` order."""
    _, work, duration = derive(graph)
    models = []
    for e in graph.edges:
        p, c = graph.stage(e.producer), graph.stage(e.consumer)
        v = Fraction(work[e.producer])
        out_rate, in_rate = tau_out(p), tau_in(c)
        models.append(RefEdge(
            edge=e, key=f"{e.producer}->{e.consumer}", volume=v, out_rate=out_rate,
            in_rate=in_rate, depth_p=p.stage_depth, depth_c=c.stage_depth,
            dur_p=v / out_rate, dur_c=duration[e.consumer], drain=v / in_rate,
            is_global=c.kind is StageKind.GLOBAL,
        ))
    return models
