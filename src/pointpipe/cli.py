"""Command-line entry point.

Every command is a pure function of its inputs, flags, and seed: given the
same arguments twice it produces byte-identical outputs. Synthetic clouds
come from a named deterministic generator whose identifier and seed are
recorded in whatever the command writes. Each command accepts only the
flags it reads; any other flag exits 2.

``simulate`` checks every chunk a schedule holds, at its interval; only
``optimize --chunks N`` chunks a schedule.

Exit codes: 0 success (or verified), 1 verification failure (stalls,
overflows, oracle mismatch, sort mismatch), 2 usage or input errors (among
them a ``simulate --chunks`` other than the schedule's count, a grid with
more than ``kernels.grid.MAX_GRID_CELLS`` = 2**20 cells or window count
times kernel volume, and an ``optimize`` or ``verify`` whose schedule
search reaches ``optimizer.MAX_SATURATED_SETS`` sets, reported as
``error: schedule optimization stopped: ...``), 3 verification inconclusive
(``verify``'s oracle ran out of its node budget, ``oracle.MAX_SEARCH_NODES``,
before it proved a minimum).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections.abc import Iterable
from fractions import Fraction

import numpy as np

from .graph import PipelineError, load_pipeline
from .optimizer import (
    ScheduleError,
    ScheduleSolution,
    edge_key,
    optimize,
    schedule_chunks,
    _frac_to_json,
)
from .oracle import verify_against_oracle
from .simulator import simulate
from .kernels import cloud as cloudio
from .kernels.cloud import PointCloud
from .kernels.grid import chunked_sort, split_grid, split_serial
from .kernels.kdtree import (
    SearchResult,
    brute_force_knn,
    brute_force_range,
    kdtree_build,
    knn_search,
    profile_deadline,
    range_search,
)
from .kernels.prng import PRNG_ID, synthetic_cloud
from .kernels.stats import mean_chunks_accessed

OK, VERIFY_FAILED, USAGE, INCONCLUSIVE = 0, 1, 2, 3

_AXES = {"x": 0, "y": 1, "z": 2}


class CliError(Exception):
    pass


def _write(path: str | None, text: str | Iterable[str]) -> None:
    parts = [text] if isinstance(text, str) else text
    if path is None or path == "-":
        sys.stdout.writelines(parts)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(parts)


# A lone NUL as json.dumps writes it. No path or argument holds a NUL, so in
# a dumped manifest this stands only where a placeholder was put.
_HOLE = json.dumps("\0")


def _dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


def _int_list(values: list[int], indent: str = "  ") -> str:
    """``values`` as ``_dumps`` writes a list of ints closed at ``indent``,
    as one join: with ``indent`` the json module falls back to its
    pure-Python encoder, one step per item, and such lists fill a manifest."""
    inner = indent + "  "
    body = f",\n{inner}".join(map(str, values))
    return f"[\n{inner}{body}\n{indent}]" if body else "[]"


def _at_least(flag: str, value: int | None, least: int) -> None:
    if value is not None and value < least:
        raise CliError(f"{flag} must be >= {least}")


def _triple(text: str, name: str) -> tuple[int, int, int]:
    parts = text.lower().split("x")
    if len(parts) != 3:
        raise CliError(f"{name} must look like AxBxC, got {text!r}")
    try:
        vals = tuple(int(p) for p in parts)
    except ValueError:
        raise CliError(f"{name} must be integers, got {text!r}") from None
    return vals  # type: ignore[return-value]


def _read_cloud(path: str, fmt: str) -> PointCloud:
    try:
        return cloudio.load(path, fmt=fmt)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read cloud {path!r}: {exc}") from exc


def _load_cloud(args) -> tuple[PointCloud, dict]:
    if args.synthetic is not None:
        if args.synthetic < 1:
            raise CliError("--synthetic needs a positive point count")
        pts = synthetic_cloud(args.synthetic, args.seed)
        meta = {"source": "synthetic", "prng": PRNG_ID, "seed": args.seed,
                "count": args.synthetic}
        return PointCloud(points=pts), meta
    if args.input is None:
        raise CliError("provide --input FILE or --synthetic N")
    c = _read_cloud(args.input, args.format)
    meta = {"source": args.input, "format": args.format, "count": len(c)}
    return c, meta


def _queries(args) -> np.ndarray:
    if args.query_input:
        return _read_cloud(args.query_input, args.format).points
    _at_least("--queries", args.queries, 1)
    return synthetic_cloud(args.queries, args.seed + 1)


def _parse_deadline(text: str | None) -> int | None:
    if text is None or text.lower() in ("inf", "none"):
        return None
    try:
        value = int(text)
    except ValueError:
        raise CliError("--deadline must be an integer or 'inf'") from None
    _at_least("--deadline", value, 1)
    return value


# -- scheduling commands ------------------------------------------------------

def cmd_optimize(args) -> int:
    _at_least("--element-bytes", args.element_bytes, 1)
    _at_least("--chunks", args.chunks, 1)
    _at_least("--horizon", args.horizon, 0)
    graph = load_pipeline(args.graph)
    solution = optimize(graph, horizon=args.horizon)
    if args.chunks != 1:
        solution = schedule_chunks(solution, graph, args.chunks)
    _write(args.out, solution.dumps(element_bytes=args.element_bytes))
    print(f"total buffer: {_frac_to_json(solution.total_buffer)} elements", file=sys.stderr)
    if args.element_bytes:
        doc = solution.to_json_dict(element_bytes=args.element_bytes)
        print(f"total buffer: {doc['total_buffer_bytes']} bytes "
              f"({args.element_bytes} B/element)", file=sys.stderr)
    print(f"makespan: {_frac_to_json(solution.makespan)} cycles", file=sys.stderr)
    return OK


def cmd_simulate(args) -> int:
    _at_least("--stride", args.stride, 1)
    graph = load_pipeline(args.graph)
    edges = [edge_key(e) for e in graph.edges]
    try:
        with open(args.schedule, "r", encoding="utf-8") as fh:
            solution = ScheduleSolution.from_json_dict(json.load(fh))
        # Every stage needs a start and every edge a capacity and an
        # overwrite start: simulate reads each one.
        for key, names in (("start_cycles", [s.id for s in graph.stages]),
                           ("buffer_sizes", edges), ("overwrite_starts", edges)):
            missing = [name for name in names if name not in getattr(solution, key)]
            if missing:
                raise ValueError(f"{key} has no entry for {missing}")
    except (OSError, ValueError, KeyError, RecursionError) as exc:
        raise CliError(f"cannot read schedule {args.schedule!r}: {exc}") from exc
    if solution.initiation_interval is not None and solution.initiation_interval < 0:
        raise CliError(f"initiation_interval must be >= 0, got "
                       f"{_frac_to_json(solution.initiation_interval)}")
    if args.chunks is not None and args.chunks != solution.chunk_count:
        raise CliError(f"--chunks {args.chunks} is not the schedule's chunk_count, "
                       f"{solution.chunk_count}; optimize --chunks N writes N chunks")
    trace = simulate(graph, solution)

    if args.trace:
        lines = ["cycle,edge,occupancy"]
        for cyc, edge, occ in trace.sample_rows(stride=args.stride):
            lines.append(f"{cyc},{edge},{occ}")
        _write(args.trace, "\n".join(lines) + "\n")
    summary = trace.summary_dict()
    if solution.initiation_interval is not None:
        summary["initiation_interval"] = _frac_to_json(solution.initiation_interval)
    _write(args.summary, _dumps(summary) + "\n")
    if trace.ok:
        print("simulation clean: no stalls, no overflows", file=sys.stderr)
        return OK
    print(
        f"simulation violated the schedule: {len(trace.stall_events)} stalls, "
        f"{len(trace.overflow_events)} overflows",
        file=sys.stderr,
    )
    return VERIFY_FAILED


def cmd_verify(args) -> int:
    # No start vector fits a negative horizon: "both infeasible" is vacuous.
    _at_least("--horizon", args.horizon, 0)
    graph = load_pipeline(args.graph)
    report = verify_against_oracle(graph, horizon=args.horizon)
    print(str(report))
    if report.budget_nodes is not None:
        return INCONCLUSIVE
    return OK if report.matches else VERIFY_FAILED


# -- point kernels ------------------------------------------------------------

def _write_neighbors(path: str | None, results: list[SearchResult]) -> None:
    """One ``query,rank,point,dist2,steps,truncated`` row per neighbour, in
    query order; ``results`` holds one search per query."""
    lines = ["query,rank,point,dist2,steps,truncated"]
    for qi, res in enumerate(results):
        tail = f"{res.steps_used},{int(res.truncated)}"
        lines += (f"{qi},{rank},{idx},{d2!r},{tail}"
                  for rank, (idx, d2) in enumerate(res.neighbors))
    _write(path, "\n".join(lines) + "\n")


def cmd_knn(args) -> int:
    cloud, meta = _load_cloud(args)
    tree = kdtree_build(cloud.points, leaf_size=args.leaf_size)
    queries = _queries(args)
    deadline = _parse_deadline(args.deadline)

    results = [knn_search(tree, q, args.k, deadline=deadline) for q in queries]
    _write_neighbors(args.out, results)
    note = f"deadline: {deadline if deadline is not None else 'none'}"
    if args.recall:
        hits = sum(
            len({i for i, _ in brute_force_knn(cloud.points, q, args.k)}
                & {i for i, _ in res.neighbors})
            for q, res in zip(queries, results))
        recall = hits / (len(queries) * min(args.k, len(cloud)))
        print(f"recall@{args.k}: {recall:.6f} ({note})", file=sys.stderr)
    else:
        print(f"searched {len(queries)} queries ({note})", file=sys.stderr)
    print(f"cloud: {meta}", file=sys.stderr)
    return OK


def cmd_range(args) -> int:
    cloud, meta = _load_cloud(args)
    tree = kdtree_build(cloud.points, leaf_size=args.leaf_size)
    queries = _queries(args)
    deadline = _parse_deadline(args.deadline)

    results = [range_search(tree, q, args.radius, deadline=deadline) for q in queries]
    _write_neighbors(args.out, results)
    if args.recall:
        exact = sum(res.neighbors == brute_force_range(cloud.points, q, args.radius)
                    for q, res in zip(queries, results))
        print(f"exact matches vs brute force: {exact}/{len(queries)}", file=sys.stderr)
    return OK


def cmd_profile_deadline(args) -> int:
    cloud, _ = _load_cloud(args)
    tree = kdtree_build(cloud.points, leaf_size=args.leaf_size)
    queries = _queries(args)
    try:
        fraction = Fraction(args.fraction)
    except (ValueError, ZeroDivisionError):
        raise CliError("--fraction must be a number or a fraction like 1/4, "
                       f"got {args.fraction!r}") from None
    prof = profile_deadline(tree, queries, args.k, fraction)
    lines = ["query,steps"] + [f"{i},{s}" for i, s in enumerate(prof.steps)]
    _write(args.out, "\n".join(lines) + "\n")
    print(f"mean steps: {prof.mean_steps!r}", file=sys.stderr)
    print(f"deadline (fraction {args.fraction}): {prof.deadline}", file=sys.stderr)
    return OK


def cmd_stats_chunks(args) -> int:
    cloud, _ = _load_cloud(args)
    dims = _triple(args.grid, "--grid")
    grid = split_grid(cloud, dims)
    tree = kdtree_build(cloud.points, leaf_size=args.leaf_size)
    queries = _queries(args)
    try:
        ks = [int(v) for v in args.k_list.split(",") if v]
    except ValueError:
        raise CliError(f"--k-list must be comma-separated integers, got {args.k_list!r}") from None
    lines = ["k,mean_chunks"]
    for k in ks:
        lines.append(f"{k},{mean_chunks_accessed(grid, tree, queries, k)!r}")
    _write(args.out, "\n".join(lines) + "\n")
    print(f"grid cells: {grid.cell_count}", file=sys.stderr)
    return OK


def _grid_manifest(doc: dict, grid, members: bool) -> Iterable[str]:
    """``_dumps`` of ``doc`` with the grid's ``cell_sizes`` and ``groups``,
    in pieces: each goes where a ``_HOLE`` stands, the groups 1024 windows
    at a time. Every window has the same number of cells, so each group
    fills one template: a batch of groups is one ``%``."""
    head, mid, tail = _dumps({**doc, "cell_sizes": "\0", "groups": "\0"}).split(_HOLE)
    group = {"cells": ["%d"] * grid.windows.shape[1], "origin": ["%d"] * 3, "size": "%d"}
    rows = np.concatenate([grid.windows, grid.origins, grid.group_sizes[:, None]], 1)
    if members:
        group["points"] = "%s"
        bounds = np.concatenate([[0], np.cumsum(grid.group_sizes)])
    # The group as it stands in the groups list, its placeholders unquoted.
    template = _dumps(group).replace('"%d"', "%d").replace('"%s"', "%s").replace("\n", "\n    ")
    sep, item = ",\n    ", ",\n        "
    yield head + _int_list(grid.cell_sizes.tolist()) + mid + "[\n    "
    for a in range(0, len(rows), 1024):
        batch = rows[a:a + 1024]
        if members:
            cuts = (bounds[a:a + 1025] - bounds[a]).tolist()
            words = list(map(str, grid.members[bounds[a]:bounds[a] + cuts[-1]].tolist()))
            # _int_list of each window's list, as one join.
            points = [f"[\n        {item.join(words[i:j])}\n      ]" if i < j else "[]"
                      for i, j in zip(cuts, cuts[1:])]
            batch = np.insert(batch.astype(object), -1, points, axis=1)
        body = sep.join([template] * len(batch)) % tuple(batch.ravel().tolist())
        yield (sep if a else "") + body
    yield "\n  ]" + tail + "\n"


def cmd_split(args) -> int:
    cloud, meta = _load_cloud(args)
    doc: dict = {"cloud": meta}
    if args.serial is not None:
        if args.grid is not None or args.kernel is not None or args.stride is not None:
            raise CliError("--serial cannot be combined with --grid, --kernel or --stride")
        _at_least("--serial", args.serial, 1)
        chunks = split_serial(cloud, args.serial)
        doc.update(mode="serial", points_per_chunk=args.serial, chunk_sizes="\0")
        lists = [_int_list([len(c) for c in chunks])]
        if args.members:
            doc["chunks"] = ["\0"] * len(chunks)
            lists += (_int_list(c.tolist(), "    ") for c in chunks)
        # The holes in key order: chunk_sizes, then each chunk.
        parts = _dumps(doc).split(_HOLE)
        _write(args.out, map(str.__add__, parts, [*lists, "\n"]))
        return OK
    if args.grid is None:
        raise CliError("provide --grid AxBxC or --serial N")
    dims = _triple(args.grid, "--grid")
    kernel = _triple(args.kernel, "--kernel") if args.kernel else (1, 1, 1)
    stride = _triple(args.stride, "--stride") if args.stride else (1, 1, 1)
    grid = split_grid(cloud, dims, kernel=kernel, stride=stride)
    doc.update(mode="grid", dims=grid.dims, kernel=grid.kernel, stride=grid.stride)
    _write(args.out, _grid_manifest(doc, grid, args.members))
    return OK


def cmd_sort(args) -> int:
    cloud, _ = _load_cloud(args)
    axis = _AXES[args.axis]
    if args.cuts:
        cuts = [float(c) for c in args.cuts.split(",") if c]
    else:
        lo = float(cloud.points[:, axis].min())
        hi = float(cloud.points[:, axis].max())
        n = args.chunks
        _at_least("--chunks", n, 1)
        cuts = [lo + (hi - lo) * i / n for i in range(1, n)]
    perm = chunked_sort(cloud, axis, cuts)
    _write(args.out, "\n".join(map(str, perm.tolist())) + "\n")
    if args.verify:
        ref = np.argsort(cloud.points[:, axis], kind="stable")
        if not np.array_equal(perm, ref):
            print("chunked sort DIVERGES from global stable sort", file=sys.stderr)
            return VERIFY_FAILED
        print("chunked sort equals global stable sort", file=sys.stderr)
    return OK


# -- wiring -------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept: parsing keeps
    no state in it, and a build costs milliseconds per ``main`` call."""
    ap = argparse.ArgumentParser(
        prog="pointpipe",
        description="Line-buffer scheduling and streaming search kernels "
                    "for point-cloud pipelines",
    )
    # Parents: each command takes only the flags it reads.
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None,
                     help="primary output file (default stdout)")
    cloud = argparse.ArgumentParser(add_help=False, parents=[out])
    cloud.add_argument("--seed", type=int, default=0, help="PRNG seed (default 0)")
    cloud.add_argument("--format", choices=("text", "binary"), default="text",
                       help="point cloud file format")
    cloud.add_argument("--input", help="point cloud file")
    cloud.add_argument("--synthetic", type=int, help="generate N uniform points instead")
    search = argparse.ArgumentParser(add_help=False, parents=[cloud])
    search.add_argument("--queries", type=int, default=100,
                        help="synthetic query count (seed+1)")
    search.add_argument("--query-input", help="load queries from a cloud file")
    search.add_argument("--leaf-size", type=int, default=16)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optimize", parents=[out], help="solve minimal line-buffer schedule")
    p.add_argument("graph", help="pipeline description JSON")
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--element-bytes", type=int, default=None)
    p.add_argument("--chunks", type=int, default=1)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("simulate", help="token-simulate a schedule")
    p.add_argument("graph")
    p.add_argument("schedule")
    p.add_argument("--chunks", type=int, help="the schedule's chunk_count; no other")
    p.add_argument("--trace", default=None, help="occupancy CSV path")
    p.add_argument("--summary", default=None, help="summary JSON path (default stdout)")
    p.add_argument("--stride", type=int, default=1, help="trace sampling stride")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="cross-check the solver against enumeration")
    p.add_argument("graph")
    p.add_argument("--horizon", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("knn", parents=[search], help="k-nearest-neighbor search")
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--deadline", default=None, help="step cap, or 'inf'")
    p.add_argument("--recall", action="store_true",
                   help="report recall against brute force")
    p.set_defaults(func=cmd_knn)

    p = sub.add_parser("range", parents=[search], help="radius search")
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--deadline", default=None)
    p.add_argument("--recall", action="store_true")
    p.set_defaults(func=cmd_range)

    p = sub.add_parser("profile-deadline", parents=[search],
                       help="suggest a step cap from profiling")
    p.add_argument("--k", type=int, default=32)
    p.add_argument("--fraction", default="1/4")
    p.set_defaults(func=cmd_profile_deadline)

    p = sub.add_parser("stats-chunks", parents=[search],
                       help="mean grid cells touched per search")
    p.add_argument("--grid", required=True, help="cell grid, e.g. 8x8x1")
    p.add_argument("--k-list", default="16,32,64,128,256")
    p.set_defaults(func=cmd_stats_chunks)

    p = sub.add_parser("split", parents=[cloud], help="partition a cloud into chunks/groups")
    p.add_argument("--grid", default=None, help="cell grid, e.g. 3x3x1")
    p.add_argument("--kernel", default=None, help="group window, e.g. 2x2x1")
    p.add_argument("--stride", default=None, help="group stride, e.g. 1x1x1")
    p.add_argument("--serial", type=int, default=None,
                   help="arrival-order chunks of N points")
    p.add_argument("--members", action="store_true",
                   help="include point index lists in the manifest")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("sort", parents=[cloud], help="chunked sort along an axis")
    p.add_argument("--axis", choices=("x", "y", "z"), default="x")
    p.add_argument("--chunks", type=int, default=8,
                   help="equal-width buckets along the axis")
    p.add_argument("--cuts", default=None, help="explicit comma-separated cut values")
    p.add_argument("--verify", action="store_true",
                   help="compare against one global stable sort")
    p.set_defaults(func=cmd_sort)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, PipelineError, ScheduleError, OSError, ValueError) as exc:
        # Kernels and the scheduler reject bad arguments with ValueError;
        # every such rejection is a usage error.
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
