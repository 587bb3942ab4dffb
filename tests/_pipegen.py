"""Deterministic random pipeline generator shared by the test suite.

Produces small DAGs with mixed stage kinds, rate denominators capped at 4,
and integral derived work, via rejection sampling on a seeded RNG.
``suite(n)`` returns the first ``n`` valid graphs from consecutive seeds,
so every run sees the same graphs. Its default shape is a single-source
chain, some with one skip edge; ``shape="tree"`` gives branching forests
in which no stage has two producers. ``drawn(edges, rng)`` draws the
stages of any edge list by the benchmark's stage rules, and
``diamond_chain(k, seed)`` so draws k diamonds in a row, 3k + 1 stages.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from pointpipe.graph import (
    Edge,
    PipelineGraph,
    Shape,
    StageKind,
    StageSpec,
    ValidationError,
    parse_pipeline,
)

from _reference import derive, tau_in, tau_out

_KINDS = [
    StageKind.ELEMENTWISE,
    StageKind.ELEMENTWISE,
    StageKind.STENCIL,
    StageKind.STENCIL,
    StageKind.REDUCTION,
    StageKind.GLOBAL,
    StageKind.GLOBAL,
]

_WORK_CHOICES = [4, 4, 6, 8, 8, 12, 16, 16, 24, 32, 48, 64]


def _random_stage(rng: random.Random, sid: str) -> StageSpec:
    kind = rng.choice(_KINDS)
    i_shape = Shape(rng.choice([1, 1, 2]), rng.choice([1, 2, 3]))
    o_shape = Shape(rng.choice([1, 1, 2]), rng.choice([1, 2]))
    reuse = (1, 1)
    if kind is StageKind.STENCIL:
        reuse = (rng.choice([1, 2, 3]), rng.choice([1, 2]))
    return StageSpec(
        id=sid,
        kind=kind,
        i_shape=i_shape,
        o_shape=o_shape,
        i_freq=rng.choice([1, 1, 2, 3, 4]),
        o_freq=rng.choice([1, 1, 2, 3, 4]),
        reuse=reuse,
        stage_depth=rng.choice([0, 0, 1, 2, 3]),
    )


def _chain_edges(rng: random.Random, n: int) -> list[Edge]:
    edges = [Edge(f"s{i - 1}", f"s{i}") for i in range(1, n)]
    if n >= 4 and rng.random() < 0.35:
        a = rng.randrange(0, n - 2)
        b = rng.randrange(a + 2, n)
        extra = Edge(f"s{a}", f"s{b}")
        if extra not in edges:
            edges.append(extra)
    return edges


def _tree_edges(rng: random.Random, n: int) -> list[Edge]:
    # Each later stage takes one earlier producer or, now and then, starts
    # a tree of its own.
    edges = []
    for i in range(1, n):
        p = rng.randrange(-1, i) if i >= 2 else 0
        if p >= 0:
            edges.append(Edge(f"s{p}", f"s{i}"))
    return edges


def _attempt(rng: random.Random, input_work: int | None, shape: str) -> PipelineGraph | None:
    n = rng.choice([3, 3, 4, 4, 5] if shape == "chain" else [4, 5, 6, 7])
    stages = [_random_stage(rng, f"s{i}") for i in range(n)]
    edges = _chain_edges(rng, n) if shape == "chain" else _tree_edges(rng, n)
    w0 = input_work if input_work is not None else rng.choice(_WORK_CHOICES)
    try:
        graph = PipelineGraph(stages=stages, edges=edges, input_work=w0)
    except ValidationError:
        return None
    if any(w > 192 for w in graph.work.values()):
        return None
    if sum(derive(graph)[2].values()) > 250:
        return None
    for s in graph.stages:
        if tau_in(s).denominator > 4 or tau_out(s).denominator > 4:
            return None
    return graph


def generate(seed: int, input_work: int | None = None,
             shape: str = "chain") -> PipelineGraph | None:
    if shape not in ("chain", "tree"):
        raise ValueError(f"unknown shape {shape!r}")
    return _attempt(random.Random(seed), input_work, shape)


def suite(count: int, start_seed: int = 0, input_work: int | None = None,
          shape: str = "chain") -> list[PipelineGraph]:
    graphs: list[PipelineGraph] = []
    seed = start_seed
    while len(graphs) < count:
        g = generate(seed, input_work, shape)
        if g is not None:
            graphs.append(g)
        seed += 1
        if seed - start_seed > 100 * count:
            raise RuntimeError("generator rejection rate unexpectedly high")
    return graphs


def _drawn_stage(rng: random.Random, sid: str) -> dict:
    """One stage document as ``bench/workloads.py`` draws it."""
    stage = {"id": sid, "kind": rng.choice(_KINDS).value,
             "i_shape": [rng.choice((1, 1, 2)), rng.choice((1, 2, 3))],
             "o_shape": [rng.choice((1, 1, 2)), rng.choice((1, 2))],
             "stage": rng.choice((0, 0, 1, 2, 3)),
             "i_freq": rng.choice((1, 1, 2, 3, 4)), "o_freq": rng.choice((1, 1, 2, 3, 4))}
    if stage["kind"] == "Stencil":
        stage["reuse"] = [rng.choice((1, 2, 3)), rng.choice((1, 2))]
    return stage


def drawn(edges: list[tuple[int, int]], rng: random.Random) -> PipelineGraph:
    """Stages s0, s1, ... joined by ``edges`` (pairs of stage numbers),
    drawn by the stage rules of ``bench/workloads.make_pipeline``: each
    stage is redrawn up to 8 times until its work is a whole number of at
    most 192, its rates' denominators are at most 4 and the durations add
    up to at most 250, and is a unit-rate Elementwise stage otherwise."""
    pairs = [[f"s{a}", f"s{b}"] for a, b in edges]
    input_work = rng.choice((8, 12, 16, 24, 32, 48, 64))
    work: dict[str, int] = {}
    stages = []
    durations = Fraction(0)
    for i in range(1 + max(max(e) for e in edges)):
        sid = f"s{i}"
        producers = [p for p, c in pairs if c == sid]
        volume = sum(work[p] for p in producers) if producers else input_work
        for _ in range(8):
            stage = _drawn_stage(rng, sid)
            reuse = stage.get("reuse", [1, 1])
            tau_in = Fraction(stage["i_shape"][0] * stage["i_shape"][1],
                              reuse[0] * reuse[1] * stage["i_freq"])
            tau_out = Fraction(stage["o_shape"][0] * stage["o_shape"][1], stage["o_freq"])
            w, duration = volume * tau_out / tau_in, volume / tau_in
            if (w.denominator == 1 and 0 < w <= 192 and tau_in.denominator <= 4
                    and tau_out.denominator <= 4 and durations + duration <= 250):
                break
        else:
            stage = {"id": sid, "kind": "Elementwise", "i_shape": [1, 1],
                     "o_shape": [1, 1], "stage": 1}
            w = duration = Fraction(volume)
        stages.append(stage)
        work[sid] = int(w)
        durations += duration
    return parse_pipeline(json.dumps(
        {"input_work": input_work, "stages": stages, "edges": pairs}))


def diamond_chain(diamonds: int, seed: int) -> PipelineGraph:
    """``diamonds`` diamonds in a row, diamond j on stages 3j to 3j + 3,
    drawn from ``random.Random(f"dchain{diamonds}-{seed}")``."""
    edges = [(3 * j + a, 3 * j + b) for j in range(diamonds)
             for a, b in ((0, 1), (0, 2), (1, 3), (2, 3))]
    return drawn(edges, random.Random(f"dchain{diamonds}-{seed}"))
