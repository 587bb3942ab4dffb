"""Dataflow graph for streaming point-cloud pipelines.

A pipeline is an ordered DAG of stages. Each stage declares its input/output
shape and frequency, its input reuse pattern, and its pipeline depth; from
those the per-stage consume/produce rates follow. Every producer->consumer
edge carries one line buffer whose capacity is sized by the optimizer.

All rate arithmetic is exact and in integers: ``validate`` fixes the
graph's one cycle unit and one token unit (``PipelineGraph.ticks`` and
``unit``), and every derived duration, rate and volume is a whole number
of them. No float enters any derivation here.

A pipeline document is one JSON object. ``parse_pipeline`` checks each of
its fields once, against the schema below, and raises ``ParseError`` on
the first it rejects. Keys without a default are required, no other key is
allowed, and an integer is a JSON integer (not ``true``, ``1.0`` or ``"1"``).

- ``input_work``: integer >= 1.
- ``stages``: list of objects with ``id`` (non-empty string), ``kind`` (a
  ``StageKind`` value), ``i_shape`` and ``o_shape`` (``[rows, attrs]``,
  integers >= 1), ``i_freq`` and ``o_freq`` (integers >= 1, default 1),
  ``reuse`` (two integers >= 1, default ``[1, 1]``, the only value an
  Elementwise or Reduction stage takes) and ``stage`` (depth, integer >= 0).
- ``edges``: list of ``[producer, consumer]`` pairs of strings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import gcd, lcm


class PipelineError(Exception):
    """Base class for pipeline description problems."""


class ParseError(PipelineError):
    """Malformed pipeline document (syntax or schema)."""


class ValidationError(PipelineError):
    """Structurally parsed but semantically invalid pipeline."""


class StageKind(Enum):
    ELEMENTWISE = "Elementwise"
    STENCIL = "Stencil"
    REDUCTION = "Reduction"
    GLOBAL = "Global"


@dataclass(frozen=True)
class Shape:
    """2-D payload shape: a block of `rows` points with `attrs` values each."""

    rows: int
    attrs: int

    @property
    def elements(self) -> int:
        return self.rows * self.attrs


@dataclass(frozen=True)
class StageSpec:
    """One pipeline stage.

    ``i_shape``/``o_shape`` are burst sizes: the elements (rows x attrs) one
    read/one write moves. ``i_freq``/``o_freq`` are cycles per read/write
    burst. ``reuse`` gives the per-dimension input reuse factor (meaningful
    for stencils; all-ones elsewhere). ``stage_depth`` is the stage's internal
    pipeline depth in cycles: the first output trails the first read by this
    much.

    The rates follow: ``tau_in = i_elems / (reuse * i_freq)`` unique elements
    and ``tau_out = o_elems / o_freq`` elements per cycle. Reads and writes
    run side by side for the same active cycles, so the stage's
    input-to-output volume ratio is ``tau_in : tau_out``. That equals
    ``i_shape : o_shape`` only when ``i_freq == o_freq`` and there is no
    reuse: a Reduction with ``i_shape [4, 1]``, ``o_shape [1, 1]`` reduces
    4:1 with ``i_freq == o_freq``, but 16:1 with ``i_freq 1``, ``o_freq 4``
    (four elements read every cycle, one written every fourth cycle).
    """

    id: str
    kind: StageKind
    i_shape: Shape
    o_shape: Shape
    i_freq: int = 1
    o_freq: int = 1
    reuse: tuple[int, int] = (1, 1)
    stage_depth: int = 0

    def __post_init__(self) -> None:
        if self.kind in (StageKind.ELEMENTWISE, StageKind.REDUCTION) and self.reuse != (1, 1):
            raise ValidationError(f"stage {self.id!r}: {self.kind.value} stages take reuse [1, 1]")

    @property
    def reuse_total(self) -> int:
        # Reuse scales unique-input consumption for stencils only.
        if self.kind is StageKind.STENCIL:
            return self.reuse[0] * self.reuse[1]
        return 1


@dataclass(frozen=True)
class Edge:
    producer: str
    consumer: str


@dataclass
class PipelineGraph:
    """Validated stage DAG plus derived per-stage work and rates.

    ``input_work`` is the elements (rows x attrs, not points) each source
    stage consumes per chunk: 32 points of 3 attributes are 96 elements.
    Every volume below counts elements too, and each stage scales its input
    volume by ``tau_out / tau_in`` (see ``StageSpec``), not by its shape
    ratio. A stencil's reuse is divided out of ``tau_in``, so no line buffer
    is sized to hold its reuse window (``image_stencil`` optimizes to one
    element); whether one should be is an open question, and this documents
    today's behaviour only.

    Derived quantities (filled by ``validate``), all integers:

    - ``in_edges[s]``, ``out_edges[s]``: positions in ``edges`` of the edges
      into and out of stage ``s``, in declaration order
    - ``input_volume[s]``: unique input elements stage ``s`` consumes per chunk
    - ``work[s]``: output elements stage ``s`` produces per chunk
    - ``edge_volume[e]``: elements transported over edge ``e`` (the producer's
      full output; multi-consumer producers broadcast)
    - ``in_rate[s]``, ``out_rate[s]``: ``tau_in`` and ``tau_out``, in units
      per tick
    - ``duration[s]``: active ticks, ``input_volume/tau_in == work/tau_out``

    A tick is 1/``ticks`` cycle and a unit 1/``unit`` element, the graph's
    one cycle unit and one token unit. ``unit`` is R * ``ticks``, R the lcm
    of the denominators of every ``tau_in`` and ``tau_out``, so each rate is
    whole units a tick. ``ticks`` is T0 * M. T0, the lcm of the denominators
    of every duration and every edge's drain (its volume over the consumer's
    ``tau_in``) in cycles, makes each of them whole ticks. M, the lcm over
    the edges of |producer ``out_rate`` - consumer ``in_rate``| (or 1), puts
    the roots of each edge's occupancy on ticks (see ``simulator``). On the
    test suites and the benchmark's pipelines ``ticks`` has at most 13 bits
    and ``unit`` at most 16.
    """

    stages: list[StageSpec]
    edges: list[Edge]
    input_work: int

    topo_order: list[str] = field(default_factory=list, repr=False)
    in_edges: dict[str, list[int]] = field(default_factory=dict, repr=False)
    out_edges: dict[str, list[int]] = field(default_factory=dict, repr=False)
    input_volume: dict[str, int] = field(default_factory=dict, repr=False)
    work: dict[str, int] = field(default_factory=dict, repr=False)
    edge_volume: dict[Edge, int] = field(default_factory=dict, repr=False)
    ticks: int = field(default=1, repr=False)
    unit: int = field(default=1, repr=False)
    in_rate: dict[str, int] = field(default_factory=dict, repr=False)
    out_rate: dict[str, int] = field(default_factory=dict, repr=False)
    duration: dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self.validate()

    # -- structure ---------------------------------------------------------

    def stage(self, stage_id: str) -> StageSpec:
        return self._by_id[stage_id]

    def producers_of(self, stage_id: str) -> list[str]:
        return [self.edges[i].producer for i in self.in_edges[stage_id]]

    def validate(self) -> None:
        if not self.stages:
            raise ValidationError("pipeline needs at least one stage")
        ids = [s.id for s in self.stages]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate stage ids")
        self._by_id = {s.id: s for s in self.stages}
        self.in_edges = {sid: [] for sid in ids}
        self.out_edges = {sid: [] for sid in ids}
        for i, e in enumerate(self.edges):
            for endpoint in (e.producer, e.consumer):
                if endpoint not in self._by_id:
                    raise ValidationError(f"edge references undeclared stage {endpoint!r}")
            if e.producer == e.consumer:
                raise ValidationError(f"self edge on stage {e.producer!r}")
            self.out_edges[e.producer].append(i)
            self.in_edges[e.consumer].append(i)
        if len(set(self.edges)) != len(self.edges):
            raise ValidationError("duplicate edge")

        self.topo_order = self._toposort()
        self._derive()

    def _toposort(self) -> list[str]:
        # Kahn's algorithm, first in first out, declaration order as the
        # tie break: ``order`` is the queue, read as it grows.
        indeg = {sid: len(ins) for sid, ins in self.in_edges.items()}
        order = [s.id for s in self.stages if not indeg[s.id]]
        for sid in order:
            for i in self.out_edges[sid]:
                consumer = self.edges[i].consumer
                indeg[consumer] -= 1
                if not indeg[consumer]:
                    order.append(consumer)
        if len(order) != len(self.stages):
            raise ValidationError("pipeline graph contains a cycle")
        return order

    # -- derived work ------------------------------------------------------

    def _derive(self) -> None:
        """Propagate work totals through the DAG and fix the graph's units.

        Sources consume the external input (``input_work`` elements each).
        A stage active for D cycles consumes U = D * tau_in unique elements
        and produces W = D * tau_out, so W = U * tau_out / tau_in. Every W
        must land on an integer or the description is rejected.
        """
        # tau_in and tau_out of each stage as (numerator, denominator).
        taus = {s.id: ((s.i_shape.elements, s.reuse_total * s.i_freq),
                       (s.o_shape.elements, s.o_freq)) for s in self.stages}
        rates = lcm(*(d // gcd(n, d) for pair in taus.values() for n, d in pair))
        self.in_rate = {sid: n * rates // d for sid, ((n, d), _) in taus.items()}
        self.out_rate = {sid: n * rates // d for sid, (_, (n, d)) in taus.items()}
        self.input_volume, self.work = {}, {}
        for sid in self.topo_order:
            producers = self.producers_of(sid)
            volume = sum(self.work[p] for p in producers) if producers else self.input_work
            work, rest = divmod(volume * self.out_rate[sid], self.in_rate[sid])
            if rest:
                tau_in, tau_out = (Fraction(*tau) for tau in taus[sid])
                raise ValidationError(
                    f"stage {sid!r}: derived work {volume * tau_out / tau_in} is not an "
                    f"integer (input volume {volume}, tau_in {tau_in}, tau_out {tau_out})"
                )
            self.input_volume[sid] = volume
            self.work[sid] = work
        self.edge_volume = {e: self.work[e.producer] for e in self.edges}
        # Each duration and drain in cycles is (amount * rates) / rate.
        spans = [(self.input_volume[sid] * rates, self.in_rate[sid]) for sid in self.topo_order]
        spans += [(v * rates, self.in_rate[e.consumer]) for e, v in self.edge_volume.items()]
        grain = lcm(*(abs(self.out_rate[e.producer] - self.in_rate[e.consumer]) or 1
                      for e in self.edges))
        self.ticks = lcm(*(d // gcd(n, d) for n, d in spans)) * grain
        self.unit = rates * self.ticks
        self.duration = {sid: self.input_volume[sid] * self.unit // self.in_rate[sid]
                         for sid in self.topo_order}


# -- pipeline description files ---------------------------------------------

_STAGE_KEYS = {"id", "kind", "i_shape", "o_shape", "i_freq", "o_freq", "reuse", "stage"}
_TOP_KEYS = ("input_work", "stages", "edges")


def _is_pair(value: object) -> bool:
    return isinstance(value, list) and len(value) == 2 and all(type(v) is int for v in value)


def _as_shape(value: object, where: str) -> Shape:
    if not _is_pair(value):
        raise ParseError(f"{where}: shape must be a [rows, attrs] pair of integers")
    if min(value) < 1:
        raise ParseError(f"{where}: shape dimensions must be >= 1, got {Shape(*value)!r}")
    return Shape(*value)


def _as_int(value: object, where: str, minimum: int = 0) -> int:
    if type(value) is not int or value < minimum:
        raise ParseError(f"{where}: expected an integer >= {minimum}")
    return value


def parse_pipeline(document: str) -> PipelineGraph:
    """Parse a JSON pipeline document (schema in the module docstring) and
    validate its graph, raising ``ValidationError`` where it makes none."""
    try:
        data = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise ParseError("top-level document must be an object")
    unknown = set(data).difference(_TOP_KEYS)
    if unknown:
        raise ParseError(f"unknown top-level keys: {sorted(unknown)}")
    for key in _TOP_KEYS:
        if key not in data:
            raise ParseError(f"missing required key {key!r}")

    input_work = _as_int(data["input_work"], "input_work", minimum=1)

    if not isinstance(data["stages"], list):
        raise ParseError("'stages' must be a list")
    kinds = {k.value: k for k in StageKind}
    stages = []
    for idx, raw in enumerate(data["stages"]):
        where = f"stages[{idx}]"
        if not isinstance(raw, dict):
            raise ParseError(f"{where}: stage must be an object")
        unknown = set(raw) - _STAGE_KEYS
        if unknown:
            raise ParseError(f"{where}: unknown keys: {sorted(unknown)}")
        for key in ("id", "kind", "i_shape", "o_shape", "stage"):
            if key not in raw:
                raise ParseError(f"{where}: missing required key {key!r}")
        sid, kind, reuse = raw["id"], raw["kind"], raw.get("reuse", [1, 1])
        if type(sid) is not str:
            raise ParseError(f"{where}: id must be a string")
        if type(kind) is not str or kind not in kinds:
            raise ParseError(f"{where}: unknown stage kind {kind!r} "
                             f"(expected one of {', '.join(kinds)})")
        if not _is_pair(reuse):
            raise ParseError(f"{where}: reuse must be a pair of integers")
        i_shape = _as_shape(raw["i_shape"], where)
        o_shape = _as_shape(raw["o_shape"], where)
        i_freq = _as_int(raw.get("i_freq", 1), f"{where}.i_freq", minimum=1)
        o_freq = _as_int(raw.get("o_freq", 1), f"{where}.o_freq", minimum=1)
        depth = _as_int(raw["stage"], f"{where}.stage", minimum=0)
        if not sid:
            raise ParseError(f"{where}: stage id must be a non-empty string")
        if min(reuse) < 1:
            raise ParseError(f"{where}: stage {sid!r}: reuse must be a pair of positive integers")
        try:
            stages.append(StageSpec(sid, kinds[kind], i_shape, o_shape, i_freq, o_freq,
                                    tuple(reuse), depth))
        except ValidationError as exc:
            raise ParseError(f"{where}: {exc}") from exc

    if not isinstance(data["edges"], list):
        raise ParseError("'edges' must be a list")
    for idx, raw in enumerate(data["edges"]):
        if not isinstance(raw, list) or len(raw) != 2 or not all(isinstance(v, str) for v in raw):
            raise ParseError(f"edges[{idx}]: edge must be a [producer, consumer] pair")
    edges = [Edge(*raw) for raw in data["edges"]]
    return PipelineGraph(stages=stages, edges=edges, input_work=input_work)


def load_pipeline(path: str) -> PipelineGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_pipeline(fh.read())
