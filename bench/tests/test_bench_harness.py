"""Tests of the benchmark's own parts. Run from the repository root:

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402


def _files(directory: str) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                out[name] = fh.read()
    return out


def test_generator_is_deterministic_per_seed(tmp_path):
    for workload in ("sched_tree", "sched_dag"):
        assert W.pipeline_pool(3, workload) == W.pipeline_pool(3, workload)
        assert W.pipeline_pool(3, workload) != W.pipeline_pool(4, workload)
    written = []
    for seed, sub in ((3, "a"), (3, "b"), (4, "c")):
        d = tmp_path / sub
        d.mkdir()
        W.points_inputs(seed, str(d))
        written.append(_files(str(d)))
    assert written[0] == written[1]
    assert written[0] != written[2]


def test_text_and_binary_frames_load_to_the_same_points(tmp_path):
    pp = run.import_program()
    points = W.clustered_frame(np.random.default_rng(0), 500)
    for fmt in ("text", "binary"):
        path = str(tmp_path / f"cloud.{fmt}")
        W.write_cloud(points, path, fmt)
        assert np.array_equal(pp.cloud.load(path, fmt=fmt).points, points)


def test_generated_pipelines_are_accepted_by_the_program():
    pp = run.import_program()
    docs = [doc for w in ("sched_tree", "sched_dag") for _, doc in W.pipeline_pool(0, w)]
    docs += list(W.chain_prefixes(run.SWEEP_STAGES).values())
    for doc in docs:
        graph = pp.graph.parse_pipeline(json.dumps(doc))
        assert len(graph.stages) == len(doc["stages"])


def test_wrappers_restore_the_originals():
    pp = run.import_program()
    sites = [(pp.cli, a) for a in ("main", "load_pipeline", "optimize", "schedule_chunks",
                                   "simulate", "verify_against_oracle", "split_grid",
                                   "chunked_sort", "kdtree_build", "knn_search",
                                   "range_search")]
    sites += [(pp.graph, "parse_pipeline"), (pp.optimizer, "build_constraints"),
              (pp.optimizer, "solve"), (pp.optimizer, "solve_milp"),
              (pp.solver, "solve_lp"), (pp.oracle, "build_constraints"),
              (pp.oracle, "solve"), (pp.oracle, "exhaustive_minimum"),
              (pp.cloud, "load"), (pp.simulator.SimTrace, "sample_rows")]
    before = [getattr(t, a) for t, a in sites]
    tracer = tracing.Tracer()
    tracing.install(tracer, pp)
    tracer.patch(pp.cli, "no_such_layer", "gone")
    try:
        assert all(getattr(t, a) is not b for (t, a), b in zip(sites, before))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = pp.cli.main(["verify", os.path.join(ROOT, "pipelines", "image_stencil.json")])
    finally:
        tracer.restore()
    assert code == 0
    assert [getattr(t, a) for t, a in sites] == before
    assert tracer.missing == ["pointpipe.cli.no_such_layer"]
    names = {span[2] for span in tracer.spans}
    assert {"cli", "graph.parse_pipeline", "optimizer.solve", "solver.solve_lp",
            "oracle.exhaustive_minimum"} <= names
    # Every span but the CLI's own has a parent, and self times add up to
    # the CLI span's duration.
    roots = [s for s in tracer.spans if s[1] < 0]
    assert [s[2] for s in roots] == ["cli"]
    total_self = sum(secs for secs, _ in tracer.self_times().values())
    assert abs(total_self - (roots[0][4] - roots[0][3])) < 1e-9
    assert set(tracing.layer_metrics(tracer)) >= {f"{n}.ms" for n in tracing.LAYERS}


def test_references_on_a_hand_built_cloud():
    points = np.array([
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],   # ties with point 1 for the origin
        [2.0, 0.0, 0.0],
        [0.0, 0.0, 3.0],
    ])
    origin = np.zeros(3)
    assert checks.knn_reference(points, origin, 3) == [(0, 0.0), (1, 1.0), (2, 1.0)]
    assert checks.knn_reference(points, origin, 9) == [
        (0, 0.0), (1, 1.0), (2, 1.0), (3, 4.0), (4, 9.0)]
    # The radius is inclusive: point 3 sits exactly on it.
    assert checks.range_reference(points, origin, 2.0) == [
        (0, 0.0), (1, 1.0), (2, 1.0), (3, 4.0)]
    # x spans [0, 2] in two cells: x = 1 is on the boundary and belongs to
    # the lower cell.
    assert checks.cell_ids(points, (2, 1, 1)).tolist() == [0, 0, 0, 1, 0]


def test_references_agree_with_the_program_on_a_seeded_frame(tmp_path):
    pp = run.import_program()
    points = W.clustered_frame(np.random.default_rng(5), 2000)
    queries = W.uniform_frame(np.random.default_rng(6), 20)
    tree = pp.cli.kdtree_build(points)
    for q in queries:
        got = pp.cli.knn_search(tree, q, 16).neighbors
        assert got == checks.knn_reference(points, q, 16)
        assert pp.cli.range_search(tree, q, 2.0).neighbors == \
            checks.range_reference(points, q, 2.0)


def test_quantile_is_a_weighted_mean_of_the_order_statistics():
    values = [float(v) for v in range(1, 12)]
    assert run.quantile(values[::-1], 0.5) == pytest.approx(6.0)
    assert run.quantile([2.5] * 7, 0.9) == pytest.approx(2.5)
    p90 = run.quantile(values, 0.9)
    assert 9.0 < p90 < 11.0
    assert run.quantile(values[:-1] + [100.0], 0.9) > p90


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "points", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
