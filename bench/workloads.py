"""Seeded inputs and the per-op command lists of the three workloads.

Everything here is the benchmark's own: pipelines are drawn with
``random.Random`` and checked against this file's own copy of the documented
rate model (never the program's validator), and point clouds come from a
numpy ``Generator``. The program only ever sees the files written here.
The same seed always gives the same files, byte for byte.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import struct
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

# -- pipelines ----------------------------------------------------------------

TREE_CHUNKS = 32
# Pipelines per (stage count, shape) cell. Every seed times the same fixed
# instance set (see ``pipeline_pool``), sized so one pass takes about
# 15 s on 2 CPUs. The DAG cells stop at 5 stages: the 6-stage draws put
# verify times between 2x and 4x of any usable limit (see run.LIMIT_CPU_S).
TREE_CELLS = {3: 2, 4: 2, 5: 2, 6: 2, 7: 1, 8: 1}
TREE_SHAPES = ("chain", "fanout")
DAG_CELLS = {4: 3, 5: 3}
DAG_SHAPES = ("diamond", "skip")
# Caps on one generated pipeline: they keep a single exact solve in the
# sub-second range on today's code.
MAX_WORK = 192
MAX_DURATION_SUM = 250
MAX_RATE_DENOMINATOR = 4

_KINDS = ("Elementwise", "Elementwise", "Stencil", "Stencil", "Reduction",
          "Global", "Global")
_INPUT_WORK = (8, 12, 16, 24, 32, 48, 64)


def _rates(stage: dict) -> tuple[Fraction, Fraction]:
    """(tau_in, tau_out) as the pipeline format documents them."""
    i_rows, i_attrs = stage["i_shape"]
    o_rows, o_attrs = stage["o_shape"]
    reuse = stage.get("reuse", [1, 1])
    reuse_total = reuse[0] * reuse[1] if stage["kind"] == "Stencil" else 1
    tau_in = Fraction(i_rows * i_attrs, reuse_total * stage.get("i_freq", 1))
    tau_out = Fraction(o_rows * o_attrs, stage.get("o_freq", 1))
    return tau_in, tau_out


def _draw_stage(rng: random.Random, sid: str) -> dict:
    kind = rng.choice(_KINDS)
    stage: dict = {
        "id": sid,
        "kind": kind,
        "i_shape": [rng.choice((1, 1, 2)), rng.choice((1, 2, 3))],
        "o_shape": [rng.choice((1, 1, 2)), rng.choice((1, 2))],
        "stage": rng.choice((0, 0, 1, 2, 3)),
    }
    i_freq = rng.choice((1, 1, 2, 3, 4))
    o_freq = rng.choice((1, 1, 2, 3, 4))
    if i_freq != 1:
        stage["i_freq"] = i_freq
    if o_freq != 1:
        stage["o_freq"] = o_freq
    if kind == "Stencil":
        stage["reuse"] = [rng.choice((1, 2, 3)), rng.choice((1, 2))]
    return stage


def _identity_stage(sid: str) -> dict:
    return {"id": sid, "kind": "Elementwise", "i_shape": [1, 1],
            "o_shape": [1, 1], "stage": 1}


def _edges(rng: random.Random, n: int, shape: str) -> list[list[str]]:
    ids = [f"s{i}" for i in range(n)]
    if shape == "chain":
        return [[ids[i - 1], ids[i]] for i in range(1, n)]
    if shape == "fanout":
        # A tree: every stage after the first takes exactly one producer,
        # and at least one producer feeds two consumers.
        edges = [[ids[0], ids[1]], [ids[0], ids[2]]]
        for i in range(3, n):
            edges.append([ids[rng.randrange(0, i)], ids[i]])
        return edges
    if shape == "diamond":
        # s0 fans out to two branches that reconverge; later stages chain.
        edges = [[ids[0], ids[1]], [ids[0], ids[2]], [ids[1], ids[3]],
                 [ids[2], ids[3]]]
        edges += [[ids[i - 1], ids[i]] for i in range(4, n)]
        return edges
    if shape == "skip":
        edges = [[ids[i - 1], ids[i]] for i in range(1, n)]
        a = rng.randrange(0, n - 2)
        b = rng.randrange(a + 2, n)
        edges.append([ids[a], ids[b]])
        return edges
    raise ValueError(f"unknown pipeline shape {shape!r}")


def make_pipeline(rng: random.Random, n: int, shape: str) -> dict:
    """One pipeline document whose derived work is integral by this file's
    own arithmetic. A stage that cannot be drawn within the caps in a few
    tries becomes a unit-rate Elementwise stage, so no graph is resampled."""
    edges = _edges(rng, n, shape)
    producers: dict[str, list[str]] = {f"s{i}": [] for i in range(n)}
    for p, c in edges:
        producers[c].append(p)
    input_work = rng.choice(_INPUT_WORK)
    work: dict[str, int] = {}
    stages = []
    duration_sum = Fraction(0)
    for i in range(n):
        sid = f"s{i}"
        volume = sum(work[p] for p in producers[sid]) if producers[sid] else input_work
        for _ in range(8):
            stage = _draw_stage(rng, sid)
            tau_in, tau_out = _rates(stage)
            w = volume * tau_out / tau_in
            duration = volume / tau_in
            if (w.denominator == 1 and 0 < w <= MAX_WORK
                    and tau_in.denominator <= MAX_RATE_DENOMINATOR
                    and tau_out.denominator <= MAX_RATE_DENOMINATOR
                    and duration_sum + duration <= MAX_DURATION_SUM):
                break
        else:
            stage = _identity_stage(sid)
            w = Fraction(volume)
            duration = Fraction(volume)
        stages.append(stage)
        work[sid] = int(w)
        duration_sum += duration
    return {"input_work": input_work, "stages": stages, "edges": edges}


def pipeline_pool(seed: int, workload: str) -> list[tuple[str, dict]]:
    """(name, document) pairs in the order one pass runs them.

    The pipelines themselves are a fixed instance set drawn from the
    workload's name, and the seed only orders them. Exact solve and oracle
    times on random pipelines of one size span two orders of magnitude, so
    a set redrawn per seed moves every timing by more than any bound a
    regression check could use.
    """
    if workload == "sched_tree":
        cells, shapes = TREE_CELLS, TREE_SHAPES
    elif workload == "sched_dag":
        cells, shapes = DAG_CELLS, DAG_SHAPES
    else:
        raise ValueError(f"no pipeline pool for workload {workload!r}")
    rng = random.Random(f"{workload}:instances")
    pool = []
    for n, per_cell in cells.items():
        for shape in shapes:
            for k in range(per_cell):
                pool.append((f"{shape}{n}_{k}", make_pipeline(rng, n, shape)))
    random.Random(f"{workload}:{seed}").shuffle(pool)
    return pool


def chain_prefixes(sizes: tuple[int, ...]) -> dict[int, dict]:
    """Nested chains for the solver size sweep: the n-stage chain is the
    first n stages of the longest one, so only the size changes."""
    rng = random.Random("sweep:instances")
    longest = make_pipeline(rng, max(sizes), "chain")
    out = {}
    for n in sizes:
        ids = {f"s{i}" for i in range(n)}
        out[n] = {
            "input_work": longest["input_work"],
            "stages": longest["stages"][:n],
            "edges": [e for e in longest["edges"] if e[1] in ids],
        }
    return out


# -- point clouds -------------------------------------------------------------

FRAME_POINTS = 10_000
FRAME_COUNT = 24
QUERY_COUNT = 128
EXTENT = np.array([64.0, 64.0, 4.0])
GRID, KERNEL, SORT_CHUNKS, K, DEADLINE, RADIUS = "32x32x8", "2x2x2", 64, 16, 32, 2.0


def _as_f32(points: np.ndarray) -> np.ndarray:
    # Binary files store float32; rounding every cloud through float32 makes
    # the text and binary forms of one frame load to the same float64 values.
    return points.astype(np.float32).astype(np.float64)


def uniform_frame(rng: np.random.Generator, n: int) -> np.ndarray:
    return _as_f32(rng.random((n, 3)) * EXTENT)


def clustered_frame(rng: np.random.Generator, n: int) -> np.ndarray:
    """A ground plane plus Gaussian blobs: skewed cell occupancy. Only the
    positions come from ``rng``; the blob count, sizes and spreads are
    fixed, so every clustered frame is equally skewed."""
    ground = n * 2 // 5
    plane = rng.random((ground, 3)) * EXTENT
    plane[:, 2] = np.abs(rng.normal(0.0, 0.02, ground))
    sigmas = np.linspace(0.5, 2.0, 8)
    sizes = np.full(len(sigmas), (n - ground) // len(sigmas))
    sizes[: (n - ground) % len(sigmas)] += 1
    parts = [plane]
    for sigma, m in zip(sigmas, sizes):
        parts.append(rng.random(3) * EXTENT + rng.normal(0.0, sigma, (m, 3)))
    pts = np.clip(np.concatenate(parts), 0.0, EXTENT)
    return _as_f32(pts[rng.permutation(len(pts))])


def write_cloud(points: np.ndarray, path: str, fmt: str) -> None:
    if fmt == "binary":
        with open(path, "wb") as fh:
            fh.write(struct.pack("<Q", len(points)))
            fh.write(points.astype("<f4").tobytes())
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(f"{x!r} {y!r} {z!r}" for x, y, z in points.tolist()))
        fh.write("\n")


@dataclass
class Frame:
    name: str
    path: str
    fmt: str
    points: np.ndarray


@dataclass
class PointsInputs:
    frames: list[Frame]
    queries: np.ndarray
    query_paths: dict[str, str] = field(default_factory=dict)


def points_inputs(seed: int, workdir: str) -> PointsInputs:
    """Frames alternate uniform and clustered; every third frame is a text
    file, the rest binary. Text frames cost more (the parser), and an
    uneven split keeps the median and the tail op each inside one group
    instead of on the gap between them."""
    rng = np.random.default_rng([seed, 0x706F696E74])
    queries = uniform_frame(rng, QUERY_COUNT)
    inputs = PointsInputs(frames=[], queries=queries)
    for fmt, ext in (("text", "txt"), ("binary", "bin")):
        path = os.path.join(workdir, f"queries.{ext}")
        write_cloud(queries, path, fmt)
        inputs.query_paths[fmt] = path
    for i in range(FRAME_COUNT):
        kind = "uniform" if i % 2 == 0 else "clustered"
        fmt = "text" if i % 3 == 0 else "binary"
        make = uniform_frame if kind == "uniform" else clustered_frame
        points = make(rng, FRAME_POINTS)
        path = os.path.join(workdir, f"frame{i:02d}.{'txt' if fmt == 'text' else 'bin'}")
        write_cloud(points, path, fmt)
        inputs.frames.append(Frame(f"{kind}{i:02d}_{fmt}", path, fmt, points))
    return inputs


# -- op command lists ---------------------------------------------------------

@dataclass
class Op:
    """One pipeline or one frame: the CLI argument lists run in order, and
    the files and captured streams the checks read afterwards."""

    name: str
    commands: list[tuple[str, list[str]]]
    outdir: str
    frame: Frame | None = None


def sched_op(name: str, path: str, workdir: str, workload: str) -> Op:
    outdir = os.path.join(workdir, "out", name)
    sched = os.path.join(outdir, "schedule.json")
    summary = os.path.join(outdir, "summary.json")
    if workload == "sched_tree":
        chunks = ["--chunks", str(TREE_CHUNKS)]
        commands = [
            ("optimize", ["optimize", path, *chunks, "--out", sched]),
            ("simulate", ["simulate", path, sched, *chunks, "--summary", summary]),
            ("verify", ["verify", path]),
        ]
    else:
        commands = [
            ("optimize", ["optimize", path, "--out", sched]),
            ("simulate", ["simulate", path, sched, "--summary", summary,
                          "--trace", os.path.join(outdir, "trace.csv")]),
            ("verify", ["verify", path]),
        ]
    return Op(name, commands, outdir)


def sched_ops(workload: str, seed: int, workdir: str, shipped: list[str]) -> list[Op]:
    """The seeded pool written as JSON files, then the ``shipped`` pipeline
    files as they are."""
    ops = []
    for name, doc in pipeline_pool(seed, workload):
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        ops.append(sched_op(name, path, workdir, workload))
    for path in shipped:
        name = "shipped_" + os.path.basename(path)[:-len(".json")]
        ops.append(sched_op(name, path, workdir, workload))
    return ops


def points_ops(inputs: PointsInputs, workdir: str) -> list[Op]:
    ops = []
    for frame in inputs.frames:
        outdir = os.path.join(workdir, "out", frame.name)
        src = ["--input", frame.path, "--format", frame.fmt]
        qry = ["--query-input", inputs.query_paths[frame.fmt]]

        def out(name: str) -> list[str]:
            return ["--out", os.path.join(outdir, name)]

        commands = [
            ("split", ["split", *src, "--grid", GRID, "--kernel", KERNEL,
                       *out("manifest.json")]),
            ("sort", ["sort", *src, "--chunks", str(SORT_CHUNKS), *out("perm.txt")]),
            ("knn", ["knn", *src, *qry, "--k", str(K), *out("knn.csv")]),
            ("knn_capped", ["knn", *src, *qry, "--k", str(K),
                            "--deadline", str(DEADLINE), *out("knn_capped.csv")]),
            ("range", ["range", *src, *qry, "--radius", repr(RADIUS),
                       *out("range.csv")]),
        ]
        ops.append(Op(frame.name, commands, outdir, frame=frame))
    return ops


def clear_outputs(op: Op) -> None:
    """Remove an op's previous outputs so a failed command cannot leave a
    stale file for the next command or for the checks."""
    shutil.rmtree(op.outdir, ignore_errors=True)
    os.makedirs(op.outdir)
