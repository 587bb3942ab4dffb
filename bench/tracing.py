"""Spans around the program's layer functions.

The tracer replaces each layer function at the module attribute through
which the program calls it, records one span per call (op id, parent span,
name, start, end) plus per-layer counts taken from the call's result, and
puts every original back on ``restore``. No program file is changed.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from types import SimpleNamespace
from typing import Callable

# Span names double as metric prefixes; every layer is reported on every
# workload, with zeros where a workload does not reach it.
LAYERS = (
    "cli",
    "graph.load_pipeline",
    "graph.parse_pipeline",
    "optimizer.optimize",
    "optimizer.build_constraints",
    "optimizer.solve",
    "solver.solve_milp",
    "solver.solve_lp",
    "optimizer.schedule_chunks",
    "simulator.simulate",
    "simulator.sample_rows",
    "oracle.verify_against_oracle",
    "oracle.exhaustive_minimum",
    "kernels.cloud.load",
    "kernels.grid.split_grid",
    "kernels.grid.chunked_sort",
    "kernels.kdtree.kdtree_build",
    "kernels.kdtree.knn_search",
    "kernels.kdtree.range_search",
)

Count = Callable[[dict, object, tuple], None]


class Tracer:
    def __init__(self) -> None:
        # Each span is [op, parent index, name, start, end]; parent -1 is
        # the benchmark itself.
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def wrap(self, name: str, fn: Callable, count: Count | None = None) -> Callable:
        def traced(*args, **kwargs):
            rec = [self.op, self._stack[-1] if self._stack else -1, name, 0.0, 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counts, result, args)
            return result

        return traced

    def patch(self, target: object, attr: str, name: str,
              count: Count | None = None,
              adapt: Callable[[Callable], Callable] | None = None) -> None:
        """Wrap ``target.attr``. A site the program no longer has is listed
        in ``missing`` and its layer reports zero calls."""
        original = getattr(target, attr, None)
        if original is None:
            self.missing.append(f"{getattr(target, '__name__', target)}.{attr}")
            return
        self._saved.append((target, attr, original))
        fn = adapt(original) if adapt is not None else original
        setattr(target, attr, self.wrap(name, fn, count))

    def restore(self) -> None:
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)

    def self_times(self) -> dict[str, tuple[float, int]]:
        """name -> (self seconds, calls); self time is a span's duration
        minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for op, parent, name, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for i, (op, parent, name, start, end) in enumerate(self.spans):
            agg = out[name]
            agg[0] += (end - start) - child[i]
            agg[1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def inclusive_time(self, name: str) -> float:
        return sum(end - start for _, _, n, start, end in self.spans if n == name)


def _materialized(gen_fn: Callable) -> Callable:
    # ``sample_rows`` is a generator; drain it inside the span so the span
    # covers the sampling work, and hand the caller the same rows.
    def rows(*args, **kwargs):
        return list(gen_fn(*args, **kwargs))

    return rows


def _add(key: str, value: Callable[[object, tuple], float]) -> Count:
    def count(counts: dict, result: object, args: tuple) -> None:
        counts[key] += value(result, args)

    return count


def _knn_counts(counts: dict, result, args) -> None:
    counts["kernels.kdtree.knn_search.steps"] += result.steps_used
    counts["kernels.kdtree.knn_search.truncated"] += int(result.truncated)


def _simulate_counts(counts: dict, result, args) -> None:
    graph = args[0]
    chunks = args[2] if len(args) > 2 else 1
    counts["simulator.simulate.chunk_edges"] += chunks * len(graph.edges)


def install(tracer: Tracer, pp: SimpleNamespace) -> None:
    """Wrap every layer at its call site. ``pp`` holds the imported
    ``pointpipe`` modules (cli, graph, optimizer, solver, simulator,
    oracle, cloud)."""
    cli, optimizer, oracle = pp.cli, pp.optimizer, pp.oracle
    rows = _add("optimizer.build_constraints.rows", lambda r, a: r.constraint_count)
    tracer.patch(cli, "main", "cli")
    tracer.patch(cli, "load_pipeline", "graph.load_pipeline")
    tracer.patch(pp.graph, "parse_pipeline", "graph.parse_pipeline")
    tracer.patch(cli, "optimize", "optimizer.optimize")
    tracer.patch(optimizer, "build_constraints", "optimizer.build_constraints", rows)
    tracer.patch(oracle, "build_constraints", "optimizer.build_constraints", rows)
    tracer.patch(optimizer, "solve", "optimizer.solve")
    tracer.patch(oracle, "solve", "optimizer.solve")
    tracer.patch(optimizer, "solve_milp", "solver.solve_milp")
    tracer.patch(pp.solver, "solve_lp", "solver.solve_lp")
    tracer.patch(cli, "schedule_chunks", "optimizer.schedule_chunks")
    tracer.patch(cli, "simulate", "simulator.simulate", _simulate_counts)
    tracer.patch(pp.simulator.SimTrace, "sample_rows", "simulator.sample_rows",
                 _add("simulator.sample_rows.rows", lambda r, a: len(r)),
                 adapt=_materialized)
    tracer.patch(cli, "verify_against_oracle", "oracle.verify_against_oracle")
    tracer.patch(oracle, "exhaustive_minimum", "oracle.exhaustive_minimum",
                 _add("oracle.candidates", lambda r, a: r[2]))
    tracer.patch(pp.cloud, "load", "kernels.cloud.load",
                 _add("kernels.cloud.load.bytes", lambda r, a: os.path.getsize(a[0])))
    tracer.patch(cli, "split_grid", "kernels.grid.split_grid",
                 _add("kernels.grid.split_grid.cells", lambda r, a: r.cell_count))
    tracer.patch(cli, "chunked_sort", "kernels.grid.chunked_sort")
    tracer.patch(cli, "kdtree_build", "kernels.kdtree.kdtree_build",
                 _add("kernels.kdtree.kdtree_build.nodes", lambda r, a: r.node_count))
    tracer.patch(cli, "knn_search", "kernels.kdtree.knn_search", _knn_counts)
    tracer.patch(cli, "range_search", "kernels.kdtree.range_search",
                 _add("kernels.kdtree.range_search.steps", lambda r, a: r.steps_used))


def layer_metrics(tracer: Tracer, scale: float = 1.0) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit). Times
    are multiplied by ``scale``, the pass's host scale factor."""
    selfs = tracer.self_times()
    c = tracer.counts
    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        secs, calls = selfs.get(layer, (0.0, 0))
        m[f"{layer}.ms"] = (secs * 1e3 * scale, "ms")
        m[f"{layer}.calls"] = (calls, "count")

    def calls(layer: str) -> int:
        return selfs.get(layer, (0.0, 0))[1]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m["solver.milp_per_solve"] = (
        ratio(calls("solver.solve_milp"), calls("optimizer.solve")), "ratio")
    m["solver.solve_lp.ms_per_call"] = (
        ratio(m["solver.solve_lp.ms"][0], calls("solver.solve_lp")), "ms")
    m["optimizer.build_constraints.rows"] = (c["optimizer.build_constraints.rows"], "count")
    m["simulator.simulate.us_per_chunk_edge"] = (
        ratio(tracer.inclusive_time("simulator.simulate") * 1e6 * scale,
              c["simulator.simulate.chunk_edges"]), "us")
    m["simulator.sample_rows.rows"] = (c["simulator.sample_rows.rows"], "count")
    m["oracle.candidates"] = (c["oracle.candidates"], "count")
    m["kernels.grid.split_grid.cells"] = (c["kernels.grid.split_grid.cells"], "count")
    m["kernels.kdtree.kdtree_build.nodes"] = (c["kernels.kdtree.kdtree_build.nodes"], "count")
    knn_calls = calls("kernels.kdtree.knn_search")
    m["kernels.kdtree.knn_search.steps_mean"] = (
        ratio(c["kernels.kdtree.knn_search.steps"], knn_calls), "steps")
    m["kernels.kdtree.knn_search.truncated_share"] = (
        ratio(c["kernels.kdtree.knn_search.truncated"], knn_calls), "fraction")
    m["kernels.kdtree.range_search.steps_mean"] = (
        ratio(c["kernels.kdtree.range_search.steps"],
              calls("kernels.kdtree.range_search")), "steps")
    m["kernels.cloud.load.bytes"] = (c["kernels.cloud.load.bytes"], "bytes")
    return m
