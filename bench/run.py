"""End-to-end benchmark of the ``pointpipe`` command line.

Runs the CLI in-process through ``pointpipe.cli.main(argv)`` as a closed
loop: one client, one op at a time. An op is one pipeline (``optimize``,
``simulate``, ``verify``) or one point-cloud frame (``split``, ``sort``,
exact ``knn``, step-capped ``knn``, ``range``). Workloads:

- ``sched_tree``: single-producer pipelines (chains and fan-outs, 3-8
  stages) plus the shipped examples, streamed as 32 chunks. The common
  case of the scheduler; the multi-chunk simulator scan dominates.
- ``sched_dag``: reconvergent pipelines (diamonds, skip edges, 4-5 stages),
  one chunk, with an occupancy trace. The MILP and the exhaustive oracle
  do their full work, under a CPU-time limit per command.
- ``points``: 10^4-point frames, alternating uniform and clustered clouds,
  every third one a text file and the rest binary, against one shared
  query set. The scheduler is bypassed; the kernels and cloud I/O do all
  the work.

A run makes its inputs from ``--seed`` (the points frames; for the sched
workloads the seed orders a fixed instance set, see
``workloads.pipeline_pool``), then runs ``round(--seconds / PASS_S)`` whole
passes over them, every input once per pass. The set of ops, and with it
every share and output digest, repeats exactly for a seed. Every time the
benchmark reports is scaled by ``hostspeed``: a fixed reference loop runs
between commands and around each set-up, and times are scaled to a host on
which that loop takes ``hostspeed.NOMINAL_S``, so a shared host's changing
speed cancels; the run record keeps the measured times too.
Outputs are checked afterwards against the benchmark's own references. The
last line of stdout is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
one untraced and one traced pass over the same ops give the per-layer
metrics, the tracing overhead, and a size sweep of three layers. The line
before the result is the run record (machine, versions, op counts, the
percentile behind ``op_tail_ms``, undecided pipelines, fail, decided and
recall shares, output digest); the record, with the spans of a traced run,
is also written to ``.bench_runs/``.

Usage, from the repository root::

    python3 bench/run.py --workload points --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1            # every workload in turn
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

import checks
import hostspeed
import tracing
import workloads as W

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sched_tree", "sched_dag", "points")
# Set-up runs at least SETUP_REPS times and until SETUP_MIN_S have passed;
# setup_s is the median repetition.
SETUP_REPS = 5
SETUP_MIN_S = 1.5
# The quantile of the ops' latencies that op_tail_ms reports.
TAIL_P = 0.9
# Process CPU seconds any sched_dag command may take before the op counts
# as undecided, at the host speed of hostspeed.NOMINAL_S; each command's
# limit is stretched by how slow the reference loop ran before it. CPU
# time, not wall time, so waiting for a busy CPU does not count. The limit
# keeps more than 2x from every op of the instance set (2 CPUs, Python
# 3.11): decided commands take at most 2.27 s, and the two that run out
# take over 30 s (verify of diamond5_1) and 69 s (optimize of diamond5_2).
LIMIT_CPU_S = {"sched_dag": 5.0}
# A run makes round(--seconds / PASS_S) whole passes, at least one, so its
# op count is fixed for a given --seconds however fast the machine runs.
# PASS_S is about how long a pass takes, with its reference loops, on a
# busy shared 2-CPU host; sched_dag's takes 30 s, 15 s of it the two ops
# that run out.
PASS_S = {"sched_tree": 15.0, "sched_dag": 30.0, "points": 15.0}
# Shipped examples timed in sched_tree. ``scale_search_mlp.json`` is rejected
# by the program today, and the benchmark's workloads may hold no failing
# op, so it runs once per run outside the timed loop and its exit codes go
# into the run record.
SHIPPED_TIMED = ("image_stencil.json", "knn_stencil.json")
SHIPPED_PROBED = ("scale_search_mlp.json",)
SWEEP_CHUNKS = (8, 32, 128)
SWEEP_CELLS = {512: (8, 8, 8), 4096: (16, 16, 16), 32768: (32, 32, 32)}
SWEEP_STAGES = (4, 6, 8)


class BenchError(Exception):
    """The benchmark cannot run here (for example, no program to run)."""


class LimitReached(Exception):
    """A command ran past its limit. Deliberately not an OSError:
    ``cli.main`` turns OSError into exit 2, which would read as a failure."""


def _on_limit(signum, frame):
    raise LimitReached()


def import_program() -> SimpleNamespace:
    """Import ``pointpipe`` afresh from this checkout's ``src``."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "pointpipe", "cli.py")):
        raise BenchError(f"no pointpipe sources under {src}")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "pointpipe" or m.startswith("pointpipe.")]:
        del sys.modules[name]
    importlib.import_module("pointpipe.cli")
    mods = {name: sys.modules[f"pointpipe.{path}"] for name, path in (
        ("cli", "cli"), ("graph", "graph"), ("optimizer", "optimizer"),
        ("solver", "solver"), ("simulator", "simulator"), ("oracle", "oracle"),
        ("cloud", "kernels.cloud"), ("grid", "kernels.grid"))}
    if not os.path.abspath(mods["cli"].__file__).startswith(src + os.sep):
        raise BenchError(f"pointpipe imported from {mods['cli'].__file__}, not {src}")
    return SimpleNamespace(**mods)


@dataclass
class Inputs:
    ops: list[W.Op]
    points: W.PointsInputs | None = None
    probes: list[tuple[str, str]] = field(default_factory=list)


def make_inputs(workload: str, seed: int, workdir: str) -> Inputs:
    shipped = "pipelines"
    if workload == "points":
        pts = W.points_inputs(seed, workdir)
        return Inputs(W.points_ops(pts, workdir), points=pts)
    timed = [os.path.join(shipped, f) for f in SHIPPED_TIMED] if workload == "sched_tree" else []
    inputs = Inputs(W.sched_ops(workload, seed, workdir, timed))
    if workload == "sched_tree":
        inputs.probes = [(f[:-5], os.path.join(shipped, f)) for f in SHIPPED_PROBED]
    return inputs


def setup(workload: str, seed: int, rundir: str) -> tuple[SimpleNamespace, Inputs, str, list[tuple[float, float]]]:
    """Import the program and write the inputs, SETUP_REPS times or more;
    the last repetition's modules and files are the ones used. Returns,
    besides, each repetition's measured and scaled seconds."""
    times = []
    ref = hostspeed.reference()
    workdir = os.path.join(rundir, "inputs")
    while len(times) < SETUP_REPS or sum(t for t, _ in times) < SETUP_MIN_S:
        shutil.rmtree(workdir, ignore_errors=True)
        t0 = time.perf_counter()
        pp = import_program()
        os.makedirs(workdir)
        inputs = make_inputs(workload, seed, workdir)
        dt = time.perf_counter() - t0
        after = hostspeed.reference()
        times.append((dt, dt * hostspeed.factor([ref, after])))
        ref = after
    return pp, inputs, workdir, times


# -- running ops ---------------------------------------------------------------

def call(pp: SimpleNamespace, argv: list[str], limit: float | None = None) -> tuple[int | None, str]:
    """(exit code, stdout) of one CLI command; exit code None means
    ``limit`` CPU seconds ran out first."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if limit is not None:
                signal.setitimer(signal.ITIMER_PROF, limit)
            try:
                code = pp.cli.main(argv)
            finally:
                if limit is not None:
                    signal.setitimer(signal.ITIMER_PROF, 0)
        except LimitReached:
            code = None
    return code, out.getvalue()


@dataclass
class OpRun:
    """One execution of an op: its wall time, that time scaled to the
    nominal host, and each command's exit code (None: ran out of its
    limit) and stdout."""

    index: int
    seconds: float
    scaled: float
    cpu_seconds: float
    codes: dict[str, int | None]
    stdout: dict[str, str]

    @property
    def scale(self) -> float:
        return self.scaled / self.seconds

    @property
    def undecided(self) -> str | None:
        """The command that ran out of its limit, if one did."""
        return next((label for label, c in self.codes.items() if c is None), None)

    @property
    def exited_ok(self) -> bool:
        return all(c in (0, None) for c in self.codes.values())


def run_op(pp: SimpleNamespace, op: W.Op, index: int, limit: float | None,
           ref: float) -> tuple[OpRun, float]:
    """Run an op's commands in order; one that runs out of its limit ends
    the op as undecided. ``ref`` is the reference time taken just before;
    the reference loop runs again after each command, and each command's
    time is scaled by the mean of the reference times on either side of
    it. Its CPU limit is stretched by the one before, and a command that
    runs out is scaled by that one alone, so its scaled time is the limit
    plus any time it waited for a CPU. Returns the run and the last
    reference time."""
    W.clear_outputs(op)
    codes, stdout = {}, {}
    seconds = scaled = cpu = 0.0
    for label, argv in op.commands:
        t0, c0 = time.perf_counter(), time.process_time()
        codes[label], stdout[label] = call(
            pp, argv, None if limit is None else limit / hostspeed.factor([ref]))
        dt = time.perf_counter() - t0
        cpu += time.process_time() - c0
        after = hostspeed.reference()
        seconds += dt
        scaled += dt * hostspeed.factor([ref] if codes[label] is None else [ref, after])
        ref = after
        if codes[label] is None:
            break
    return OpRun(index, seconds, scaled, cpu, codes, stdout), ref


def run_pass(pp: SimpleNamespace, ops: list[W.Op], limit: float | None,
             tracer: tracing.Tracer | None = None) -> list[OpRun]:
    """Every op once."""
    runs = []
    ref = hostspeed.reference()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        run, ref = run_op(pp, op, i, limit, ref)
        runs.append(run)
    return runs


# -- checks --------------------------------------------------------------------

def check_outputs(workload: str, inputs: Inputs, last: list[OpRun]) -> tuple[dict[str, list[str]], dict[str, str], float | None]:
    """Check the outputs of the last pass. Returns (check errors by op
    name, output digest by op name, capped recall or None)."""
    errors: dict[str, list[str]] = {}
    digests: dict[str, str] = {}
    recalls: list[float] = []
    for op, run in zip(inputs.ops, last):
        parts, errs = [], []
        try:
            for label, argv in op.commands:
                code = run.codes.get(label, "skipped")
                if code != 0:
                    parts.append(f"{label}:{code}")
                    continue
                for flag in ("--out", "--summary", "--trace"):
                    if flag in argv:
                        path = argv[argv.index(flag) + 1]
                        parts.append(f"{label}{flag}:{checks.file_digest(path)}")
                if run.stdout[label]:
                    parts.append(f"{label}:stdout:{checks.digest(run.stdout[label].encode())}")
            if workload == "points" and run.exited_ok:
                errs = _check_frame(op, inputs.points, recalls)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            errs = [f"unreadable output: {exc!r}"]
        digests[op.name] = checks.digest("\n".join(parts).encode())
        if errs:
            errors[op.name] = errs
    recall = statistics.fmean(recalls) if recalls else None
    return errors, digests, recall


def _check_frame(op: W.Op, pts: W.PointsInputs, recalls: list[float]) -> list[str]:
    out = {label: argv[argv.index("--out") + 1] for label, argv in op.commands}
    points, queries = op.frame.points, pts.queries
    dims = tuple(int(v) for v in W.GRID.split("x"))
    kernel = tuple(int(v) for v in W.KERNEL.split("x"))
    errs = checks.check_split(out["split"], points, dims, kernel)
    errs += checks.check_sort(out["sort"], points)
    errs += checks.check_exact(out["knn"], points, queries,
                               lambda p, q: checks.knn_reference(p, q, W.K))
    errs += checks.check_exact(out["range"], points, queries,
                               lambda p, q: checks.range_reference(p, q, W.RADIUS))
    capped_errs, recall = checks.check_capped(out["knn_capped"], points, queries,
                                              W.K, W.DEADLINE)
    recalls.append(recall)
    return errs + capped_errs


# -- metrics -------------------------------------------------------------------

def quantile(values: list[float], p: float) -> float:
    """The Harrell-Davis estimate of the ``p`` quantile of ``values``: a
    weighted mean of all of them, the i-th smallest weighted by the mass a
    Beta((n+1)p, (n+1)(1-p)) distribution puts on [(i-1)/n, i/n]. Over a
    few dozen ops it moves less with one op's noise than the order
    statistic does, which jumps between neighbouring ops."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    steps = 256
    t = (np.arange(n * steps) + 0.5) / (n * steps)
    density = np.exp((a - 1) * np.log(t) + (b - 1) * np.log1p(-t))
    weights = density.reshape(n, steps).sum(axis=1)
    return float(weights @ x / weights.sum())


def end_to_end(runs: list[OpRun], setup_s: float) -> dict:
    """The end-to-end metrics. The latency metrics are quantiles over the
    ops, each at its mean scaled latency over the passes."""
    secs = [r.scaled for r in runs]
    per_op: dict[int, list[float]] = {}
    for r in runs:
        per_op.setdefault(r.index, []).append(r.scaled)
    latencies = [statistics.fmean(v) for v in per_op.values()]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(secs) / sum(secs), "ops/s"),
        "op_p50_ms": (quantile(latencies, 0.5) * 1e3, "ms"),
        "op_tail_ms": (quantile(latencies, TAIL_P) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def timed_median(fn) -> float:
    """Median seconds of three calls, or one call when it takes 0.5 s or
    more, scaled by the host's speed around them."""
    times = []
    before = hostspeed.reference()
    for _ in range(3):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
        if times[0] >= 0.5:
            break
    return statistics.median(times) * hostspeed.factor([before, hostspeed.reference()])


def sweep(pp: SimpleNamespace, seed: int) -> dict:
    """Time three layers directly at growing sizes, untraced."""
    m = {}
    graph = pp.graph.load_pipeline(os.path.join("pipelines", "knn_stencil.json"))
    base = pp.optimizer.optimize(graph)
    for c in SWEEP_CHUNKS:
        sched = pp.optimizer.schedule_chunks(base, graph, c)
        m[f"sweep.simulate.ms.c{c}"] = (
            timed_median(lambda: pp.simulator.simulate(graph, sched, chunk_count=c)) * 1e3, "ms")
    cloud = pp.cloud.PointCloud(points=W.uniform_frame(np.random.default_rng([seed, 1]),
                                                      W.FRAME_POINTS))
    for cells, dims in SWEEP_CELLS.items():
        m[f"sweep.split_grid.ms.cells{cells}"] = (
            timed_median(lambda: pp.grid.split_grid(cloud, dims, kernel=(2, 2, 2))) * 1e3, "ms")
    for n, doc in W.chain_prefixes(SWEEP_STAGES).items():
        chain = pp.graph.parse_pipeline(json.dumps(doc))
        m[f"sweep.solve.ms.n{n}"] = (
            timed_median(lambda: pp.optimizer.solve(pp.optimizer.build_constraints(chain))) * 1e3,
            "ms")
    return m


# -- one workload ----------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, list]:
    """(result, record, spans) of one run."""
    limit = LIMIT_CPU_S.get(workload)
    # A fixed path relative to the root: the split manifest records its
    # input's path, and the output digests must repeat across runs.
    rundir = os.path.join(".bench_work", f"{workload}-seed{seed}")
    shutil.rmtree(rundir, ignore_errors=True)
    previous = signal.signal(signal.SIGPROF, _on_limit)
    try:
        pp, inputs, workdir, setup_times = setup(workload, seed, rundir)
        probes = {}
        for name, path in inputs.probes:
            probe = W.sched_op(name, path, workdir, workload)
            W.clear_outputs(probe)
            probes[name] = {label: call(pp, argv)[0] for label, argv in probe.commands}
        spans: list = []
        missing_sites: list[str] = []
        if trace:
            plain = run_pass(pp, inputs.ops, limit)
            tracer = tracing.Tracer()
            tracing.install(tracer, pp)
            try:
                traced = run_pass(pp, inputs.ops, limit, tracer)
            finally:
                tracer.restore()
            runs, passes, last = plain + traced, 2, traced
            metrics = tracing.layer_metrics(tracer, statistics.median(r.scale for r in traced))
            for label, layer in (("optimize", "optimizer"), ("verify", "oracle")):
                metrics[f"{layer}.undecided"] = (
                    sum(r.undecided == label for r in traced), "count")
            metrics["trace.overhead_share"] = (
                sum(r.scaled for r in traced) / sum(r.scaled for r in plain) - 1, "fraction")
            metrics.update(sweep(pp, seed))
            spans = tracer.spans
            missing_sites = tracer.missing
        else:
            passes = max(1, round(seconds / PASS_S[workload]))
            runs = [r for _ in range(passes) for r in run_pass(pp, inputs.ops, limit)]
            last = runs[-len(inputs.ops):]
            metrics = end_to_end(runs, statistics.median(t for _, t in setup_times))
        errors, digests, recall = check_outputs(workload, inputs, last)
    finally:
        signal.signal(signal.SIGPROF, previous)
        shutil.rmtree(rundir, ignore_errors=True)

    names = [op.name for op in inputs.ops]
    failed = [r for r in runs if not r.exited_ok or names[r.index] in errors]
    # Exit 1 is the program reporting a wrong schedule (stall, overflow or
    # oracle mismatch): the sched workloads' independent check failing.
    correct = not errors and not any(c == 1 for r in runs for c in r.codes.values())
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "platform": platform.platform(),
        "ops_per_pass": len(inputs.ops), "passes": passes, "ops": len(runs),
        "op_tail_percentile": None if trace else round(100 * TAIL_P),
        "limit_cpu_s": limit,
        "fail_share": {"value": len(failed) / len(runs), "unit": "fraction"},
        "undecided": sorted({f"{names[r.index]}:{r.undecided}" for r in runs if r.undecided}),
        "setup_s_fields": ["measured", "scaled"],
        "setup_s_reps": setup_times,
        "op_scale_median": statistics.median(r.scale for r in runs),
        "ops_per_s_measured": len(runs) / sum(r.seconds for r in runs),
        "outputs_digest": checks.digest(json.dumps(digests, sort_keys=True).encode()),
        "op_digests": digests,
        "op_seconds_fields": ["measured", "cpu", "scale"],
        "op_seconds": {name: [(r.seconds, r.cpu_seconds, r.scale) for r in runs if r.index == i]
                       for i, name in enumerate(names)},
        "check_errors": errors,
        "shipped_probe": probes,
        "untraced_sites": missing_sites,
    }
    if workload != "points":
        record["decided_share"] = {
            "value": sum(r.undecided is None for r in runs) / len(runs), "unit": "fraction"}
    if recall is not None:
        record["capped_recall"] = {"value": recall, "unit": "fraction"}
    result = {
        "correct": correct,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, record, spans


def write_record(record: dict, spans: list) -> None:
    outdir = ".bench_runs"
    os.makedirs(outdir, exist_ok=True)
    name = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    with open(os.path.join(outdir, name), "w", encoding="utf-8") as fh:
        json.dump({"record": record,
                   "span_fields": ["op", "parent", "name", "start_s", "end_s"],
                   "spans": spans}, fh)
        fh.write("\n")


def run_all(args) -> int:
    """Every workload in its own process, so each reports its own memory."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print(f"# {workload}")
        for line in lines:
            print(line)
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{workload}.{k}"] = v
    print(json.dumps(combined))
    return status


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)
    try:
        result, record, spans = run_workload(args.workload, args.seed, args.seconds,
                                             bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    write_record(record, spans)
    print(json.dumps({k: v for k, v in record.items()
                      if k not in ("op_digests", "op_seconds")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
