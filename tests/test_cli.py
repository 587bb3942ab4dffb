"""The command line keeps its documented exit codes on bad input and its
output bytes."""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import GOLDEN, naive_groups, reconvergent
from pointpipe import optimizer
from pointpipe.cli import USAGE, VERIFY_FAILED, _json_text, build_parser, main
from pointpipe.kernels.cloud import PointCloud
from pointpipe.kernels.grid import split_grid
from pointpipe.kernels.prng import synthetic_cloud
from pointpipe.optimizer import _frac_to_json

PIPELINES = sorted((Path(__file__).parent.parent / "pipelines").glob("*.json"))
KNN_STENCIL = str(Path(__file__).parent.parent / "pipelines" / "knn_stencil.json")
GOLDEN_SPLIT = Path(__file__).parent / "golden" / "split"
GOLDEN_SEARCH = Path(__file__).parent / "golden" / "search"
POINTS = ["--synthetic", "50"]
CLOUD = [*POINTS, "--queries", "3"]

BAD_INPUTS = [
    ["range", *CLOUD, "--radius", "0.2", "--deadline", "abc"],
    ["range", *CLOUD, "--radius", "0"],
    ["range", *CLOUD, "--radius", "nan"],
    ["sort", *POINTS, "--cuts", "a,b"],
    ["sort", *POINTS, "--cuts", "0.5,nan,0.2"],
    ["sort", *POINTS, "--chunks", "0"],
    ["profile-deadline", *CLOUD, "--fraction", "x"],
    ["profile-deadline", *CLOUD, "--fraction", "1/0"],
    ["knn", *CLOUD, "--k", "0"],
    ["knn", "--synthetic", "50", "--queries", "0"],
    ["split", *POINTS, "--grid", "0x1x1"],
    ["split", *POINTS, "--serial", "0"],
    ["split", *POINTS, "--serial", "10", "--grid", "2x2x2"],
    ["split", *POINTS, "--serial", "10", "--kernel", "1x1x1"],
    ["split", *POINTS, "--serial", "10", "--stride", "1x1x1"],
    # One past MAX_GRID_CELLS = 2**20: 2**20 + 1 = 17 * 61681 cells, and as
    # many (window, cell) pairs, 61681 windows of 17, on fewer cells.
    ["split", *POINTS, "--grid", "17x61681x1"],
    ["split", *POINTS, "--grid", "61697x1x1", "--kernel", "17x1x1"],
    ["stats-chunks", *CLOUD, "--grid", "0x1x1"],
    ["stats-chunks", *CLOUD, "--grid", "17x61681x1"],
    ["optimize", KNN_STENCIL, "--chunks", "0"],
    ["optimize", KNN_STENCIL, "--element-bytes", "0"],
    ["optimize", KNN_STENCIL, "--element-bytes", "-4"],
    ["optimize", KNN_STENCIL, "--horizon", "-1"],
    ["verify", KNN_STENCIL, "--horizon", "-1"],
]


@pytest.mark.parametrize("argv", BAD_INPUTS, ids=lambda a: " ".join(a[:1] + a[-2:]))
def test_bad_input_is_a_usage_error(argv, tmp_path, capsys):
    # verify writes no file, so it takes no --out.
    out = [] if argv[0] == "verify" else ["--out", str(tmp_path / "out")]
    assert main([*argv, *out]) == USAGE
    assert capsys.readouterr().err.startswith("error: ")


def test_simulate_rejects_zero_chunks(tmp_path, capsys):
    # and a trace stride below one
    schedule, trace = str(tmp_path / "schedule.json"), str(tmp_path / "trace.csv")
    assert main(["optimize", KNN_STENCIL, "--out", schedule]) == 0
    for flag in (["--chunks", "0"], ["--stride", "0"], ["--stride", "-1"]):
        capsys.readouterr()
        assert main(["simulate", KNN_STENCIL, schedule, "--trace", trace, *flag]) == USAGE
        assert capsys.readouterr().err.startswith("error: ")


def test_simulate_rejects_a_negative_interval(tmp_path, capsys):
    # A negative interval overlaps every chunk with every other; the run
    # would cost more than quadratic time in --chunks. Zero stays legal: the
    # chunks run at once and overflow the one chunk's buffers.
    schedule = tmp_path / "schedule.json"
    assert main(["optimize", KNN_STENCIL, "--chunks", "4", "--out", str(schedule)]) == 0
    doc = json.loads(schedule.read_text())
    for interval, code in (("-8", USAGE), ("-1/2", USAGE), (0, VERIFY_FAILED)):
        schedule.write_text(json.dumps({**doc, "initiation_interval": interval}))
        capsys.readouterr()
        assert main(["simulate", KNN_STENCIL, str(schedule), "--chunks", "400"]) == code
        if code == USAGE:
            assert capsys.readouterr().err == (
                f"error: initiation_interval must be >= 0, got {interval}\n")


def _with(doc: dict, key: str, **entries) -> dict:
    """``doc`` with entries of its ``key`` map replaced."""
    return {**doc, key: {**doc[key], **entries}}


# A schedule for KNN_STENCIL as optimize writes it, and (label, the
# malformed document, --chunks): each must exit 2 with no traceback.
EDGE = "knn->stencil"
MALFORMED_SCHEDULES = [
    *((f"{key} a list", lambda doc, key=key: {**doc, key: []}, "1")
      for key in ("start_cycles", "buffer_sizes", "bubbles")),
    ("null start cycle", lambda doc: _with(doc, "start_cycles", knn=None), "1"),
    ("null buffer size", lambda doc: _with(doc, "buffer_sizes", **{EDGE: None}), "1"),
    ("null overwrite start", lambda doc: _with(doc, "overwrite_starts", **{EDGE: None}), "1"),
    ("null initiation_interval", lambda doc: {**doc, "initiation_interval": None}, "1"),
    ("null total_buffer", lambda doc: {**doc, "total_buffer": None}, "1"),
    ("a list", lambda doc: [doc], "1"),
    ("no overwrite start, 4 chunks", lambda doc: {**doc, "overwrite_starts": {}}, "4"),
    # Accepted once: the edge went unchecked, the overwrite start took its
    # default, and int() read each start cycle.
    ("no buffer size", lambda doc: {**doc, "buffer_sizes": {}}, "1"),
    ("no overwrite start", lambda doc: {**doc, "overwrite_starts": {}}, "1"),
    ("start cycle 1.7", lambda doc: _with(doc, "start_cycles", knn=1.7), "1"),
    ("start cycle \"2\"", lambda doc: _with(doc, "start_cycles", knn="2"), "1"),
    ("start cycle true", lambda doc: _with(doc, "start_cycles", knn=True), "1"),
    # Fraction would read "1e9999999" for seconds, and "1/0" raises.
    ("exponent amount", lambda doc: {**doc, "total_buffer": "1e9999999"}, "1"),
    ("zero denominator", lambda doc: _with(doc, "buffer_sizes", **{EDGE: "1/0"}), "1"),
    ("chunk_count \"x\"", lambda doc: {**doc, "chunk_count": "x"}, "1"),
    ("chunk_count 0", lambda doc: {**doc, "chunk_count": 0}, "1"),
    ("horizon \"x\"", lambda doc: {**doc, "horizon": "x"}, "1"),
]


@pytest.mark.parametrize("label,malform,chunks", MALFORMED_SCHEDULES,
                         ids=[case[0] for case in MALFORMED_SCHEDULES])
def test_malformed_schedule_is_a_usage_error(label, malform, chunks, tmp_path, capsys):
    schedule = tmp_path / "schedule.json"
    assert main(["optimize", KNN_STENCIL, "--out", str(schedule)]) == 0
    schedule.write_text(json.dumps(malform(json.loads(schedule.read_text()))))
    capsys.readouterr()
    assert main(["simulate", KNN_STENCIL, str(schedule), "--chunks", chunks]) == USAGE
    out, err = capsys.readouterr()
    assert err.startswith(f"error: cannot read schedule {str(schedule)!r}: ") and not out


# Optimized schedules with every overwrite start moved before the consumer
# retires data: far before it with every buffer 0, and one cycle before it.
# Each simulated clean once.
EARLY_OVERWRITES = {
    "far early, no buffers": lambda doc: {
        **doc, "overwrite_starts": dict.fromkeys(doc["overwrite_starts"], -1000),
        "buffer_sizes": dict.fromkeys(doc["buffer_sizes"], 0)},
    "a cycle early": lambda doc: {
        **doc, "overwrite_starts": {k: _frac_to_json(Fraction(v) - 1)
                                    for k, v in doc["overwrite_starts"].items()}},
}


@pytest.mark.parametrize("edit", EARLY_OVERWRITES)
@pytest.mark.parametrize("path", PIPELINES, ids=[p.stem for p in PIPELINES])
def test_early_overwrite_start_fails_simulation(path, edit, tmp_path, capsys):
    schedule, summary = tmp_path / "schedule.json", tmp_path / "summary.json"
    assert main(["optimize", str(path), "--out", str(schedule)]) == 0
    schedule.write_text(json.dumps(EARLY_OVERWRITES[edit](json.loads(schedule.read_text()))))
    argv = ["simulate", str(path), str(schedule), "--summary", str(summary)]
    assert main(argv) == VERIFY_FAILED
    stalls = json.loads(summary.read_text())["stalls"]
    assert len(stalls) == len(json.loads(schedule.read_text())["overwrite_starts"])
    assert {s["cause"] for s in stalls} == {"overwrite starts before the consumer retires data"}


# json's decoder recurses once a level: 100,000 levels raised
# RecursionError out of both readers, a traceback with exit 1.
DEEP = {"arrays": "[" * 100_000, "objects": '{"a":' * 100_000}


@pytest.mark.parametrize("nesting", DEEP)
def test_deeply_nested_document_is_a_usage_error(nesting, tmp_path, capsys):
    # as a pipeline and as a schedule
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP[nesting])
    assert main(["optimize", str(deep)]) == USAGE
    assert capsys.readouterr() == ("", "error: document nests too deeply\n")
    assert main(["simulate", KNN_STENCIL, str(deep)]) == USAGE
    out, err = capsys.readouterr()
    assert err.startswith(f"error: cannot read schedule {str(deep)!r}: ") and not out


def test_missing_top_level_key_is_named_in_declaration_order(tmp_path):
    # The parser once named the first missing key of a set, in hash order.
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    src = str(Path(__file__).parent.parent / "src")
    errors = set()
    for seed in ("1", "3"):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
        run = subprocess.run([sys.executable, "-m", "pointpipe.cli", "optimize", str(empty)],
                             env=env, capture_output=True, text=True)
        assert run.returncode == USAGE
        errors.add(run.stderr)
    assert errors == {"error: missing required key 'input_work'\n"}


def _outputs(argv, directory: Path, capsys) -> tuple:
    """Exit code, stdout, stderr and every file written of one ``main`` call
    in an emptied ``directory``."""
    for f in directory.iterdir():
        f.unlink()
    capsys.readouterr()
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err, {f.name: f.read_bytes() for f in sorted(directory.iterdir())}


def test_cached_parser_keeps_no_state_between_calls(tmp_path, capsys):
    # Each call's outputs equal those of a call with a freshly built parser,
    # as the first call in a process has; a flag given to one simulate
    # call must not carry over to the next.
    schedule = str(tmp_path / "schedule.json")
    assert main(["optimize", KNN_STENCIL, "--chunks", "8", "--out", schedule]) == 0
    work = tmp_path / "work"
    work.mkdir()
    trace = str(work / "trace.csv")
    calls = [
        ["optimize", KNN_STENCIL, "--element-bytes", "4"],
        ["verify", KNN_STENCIL],
        ["knn", *CLOUD, "--k", "2", "--recall"],
        ["simulate", KNN_STENCIL, schedule, "--chunks", "8", "--stride", "3", "--trace", trace],
        ["simulate", KNN_STENCIL, schedule, "--chunks", "8"],
        ["sort", *POINTS, "--verify"],
        ["optimize", KNN_STENCIL],
    ]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(_outputs(argv, work, capsys))
    assert fresh[3][3] and not fresh[4][3]  # only the first writes a trace
    build_parser.cache_clear()
    assert [_outputs(argv, work, capsys) for argv in calls] == fresh
    assert build_parser.cache_info().misses == 1


# (command, flag) pairs that the command would not read: it rejects each.
UNREAD_FLAGS = [
    ("optimize", "--seed"), ("optimize", "--format"),
    ("simulate", "--seed"), ("simulate", "--format"), ("simulate", "--out"),
    ("verify", "--seed"), ("verify", "--format"), ("verify", "--out"),
    ("split", "--queries"), ("split", "--query-input"), ("split", "--leaf-size"),
    ("sort", "--queries"), ("sort", "--query-input"), ("sort", "--leaf-size"),
    ("knn", "--deadline-frac"),
]


@pytest.mark.parametrize("command,flag", UNREAD_FLAGS)
def test_unread_flag_is_a_usage_error(command, flag, tmp_path, capsys):
    # An accepted flag that is never read fails silently: `verify g.json
    # --out F` would exit 0 and write no F.
    operands = {"optimize": [KNN_STENCIL], "verify": [KNN_STENCIL],
                "simulate": [KNN_STENCIL, str(tmp_path / "schedule.json")]}
    with pytest.raises(SystemExit) as exit_:
        main([command, *operands.get(command, POINTS), flag, str(tmp_path / "f")])
    assert exit_.value.code == USAGE
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "f").exists()


def test_no_prune_is_gone():
    with pytest.raises(SystemExit) as exit_:
        main(["optimize", KNN_STENCIL, "--no-prune"])
    assert exit_.value.code == USAGE


@pytest.mark.parametrize("command", ["optimize", "verify"])
def test_search_limit_is_a_schedule_error(command, tmp_path, monkeypatch, capsys):
    # verify must not read an unfinished search as an infeasible schedule
    # (which would be an oracle mismatch, exit 1). This diamond's optimum is
    # above the floor, so its schedule takes the search.
    diamond = tmp_path / "diamond.json"
    diamond.write_text(reconvergent("diamond5_1"))
    monkeypatch.setattr(optimizer, "MAX_SATURATED_SETS", 0)
    assert main([command, str(diamond)]) == USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "saturated-edge sets" in err


@pytest.mark.parametrize("command", ["optimize", "verify"])
def test_shipped_pipelines_never_reach_the_search(command, monkeypatch, capsys):
    # Every shipped pipeline is single-producer, and the reconvergent diamond
    # has its optimum on the floor: the floor pass schedules each.
    def refuse(*args, **kwargs):
        raise AssertionError("saturated-edge search called")

    monkeypatch.setattr(optimizer, "_search", refuse)
    assert PIPELINES
    for path in [*PIPELINES, GOLDEN / "reconvergent" / "diamond" / "pipeline.json"]:
        assert main([command, str(path)]) == 0, path


@pytest.mark.parametrize("members", [False, True], ids=["plain", "members"])
def test_split_manifest_matches_golden(members, tmp_path):
    out = tmp_path / "manifest.json"
    argv = ["split", "--synthetic", "300", "--seed", "7", "--grid", "7x5x3",
            "--kernel", "3x2x2", "--stride", "2x1x2", "--out", str(out)]
    assert main(argv + ["--members"] * members) == 0
    name = "manifest.members.json" if members else "manifest.json"
    assert out.read_bytes() == (GOLDEN_SPLIT / name).read_bytes()


@pytest.mark.parametrize("members", [False, True], ids=["plain", "members"])
def test_serial_manifest_matches_golden(members, tmp_path):
    out = tmp_path / "manifest.json"
    argv = ["split", "--synthetic", "300", "--seed", "7", "--serial", "64", "--out", str(out)]
    assert main(argv + ["--members"] * members) == 0
    name = "serial.members.json" if members else "serial.json"
    assert out.read_bytes() == (GOLDEN_SPLIT / name).read_bytes()


# The sha256 of the manifest of a benchmark-shaped frame, as written by the
# one-dict-per-group writer that the columnar writer replaced.
BENCH_SHAPED_SHA256 = {
    False: "c79acaad6609ad65f5be251b51cc123008cff240d22f34560ad745cc88c69b92",
    True: "e48fa1a853c869959a4a4d3ab3327e6d831df3d3a9aedaf561cfacee063d171d",
}


@pytest.mark.parametrize("members", [False, True], ids=["plain", "members"])
def test_benchmark_shaped_manifest_keeps_its_bytes(members, tmp_path):
    out = tmp_path / "manifest.json"
    argv = ["split", "--synthetic", "10000", "--grid", "32x32x8", "--kernel", "2x2x2",
            "--out", str(out)]
    assert main(argv + ["--members"] * members) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BENCH_SHAPED_SHA256[members]


lattice = st.integers(0, 6).map(lambda v: v / 2)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(pts=st.lists(st.tuples(lattice, lattice, lattice), min_size=1, max_size=40),
       dims=st.tuples(*[st.integers(1, 6)] * 3), stride=st.tuples(*[st.integers(1, 3)] * 3),
       flat=st.sets(st.integers(0, 2)), members=st.booleans(), data=st.data())
def test_grid_manifest_equals_json_dumps_of_its_dicts(pts, dims, stride, flat, members, data):
    # Few points in up to 216 cells leave most windows empty; a flat axis
    # collapses to one cell. The document is built one dict per group from
    # the naive definition of the groups.
    pts = np.array(pts)
    pts[:, sorted(flat)] = 1.0
    shape = split_grid(PointCloud(pts), dims).dims
    kernel = tuple(data.draw(st.integers(1, d)) for d in shape)
    grid = split_grid(PointCloud(pts), dims, kernel=kernel, stride=stride)
    cells, groups = naive_groups(grid)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "cloud.xyz")
        Path(path).write_text("".join(f"{x!r} {y!r} {z!r}\n" for x, y, z in pts.tolist()))
        argv = ["split", "--input", path, "--grid", "x".join(map(str, dims)),
                "--kernel", "x".join(map(str, kernel)), "--stride", "x".join(map(str, stride)),
                "--out", os.path.join(d, "manifest.json")]
        assert main(argv + ["--members"] * members) == 0
        text = Path(d, "manifest.json").read_text()
    doc = {
        "cloud": {"source": path, "format": "text", "count": len(pts)},
        "mode": "grid",
        "dims": list(shape),
        "kernel": list(kernel),
        "stride": list(stride),
        "cell_sizes": [len(c) for c in cells],
        "groups": [{"origin": list(origin), "cells": list(window), "size": len(points),
                    **({"points": points} if members else {})}
                   for origin, window, points in groups],
    }
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"


# Each search command on two clouds. Both trees have leaves four levels below
# the root, so a 6-step search scans one or two leaves. The lattice is written
# twice, the second copy reversed, and its queries sit on lattice points and
# cell centres: exact distance ties decide which neighbours are held, and so
# which subtrees are pruned and how many steps a search takes.
SEARCH_CLOUDS = {
    "synthetic": (["--synthetic", "2000", "--seed", "3", "--queries", "40",
                   "--leaf-size", "128"], "0.15"),
    "lattice": (["--input", "lattice.xyz", "--query-input", "queries.xyz"], "0.25"),
}
SEARCH_CASES = {
    "knn": ["knn"],
    "knn.deadline6": ["knn", "--deadline", "6"],
    "knn.recall": ["knn", "--recall"],
    "range.deadline6": ["range", "--deadline", "6", "--radius"],
    "profile_deadline": ["profile-deadline"],
    "stats_chunks": ["stats-chunks", "--grid", "4x4x2"],
}


def _write_lattice(directory: Path) -> None:
    ticks = [i / 4 for i in range(5)]
    lattice = [f"{x} {y} {z}" for x in ticks for y in ticks for z in ticks]
    (directory / "lattice.xyz").write_text("\n".join(lattice + lattice[::-1]) + "\n")
    queries = [f"{(3 * i) % 9 / 8} {(5 * i) % 9 / 8} {(7 * i) % 9 / 8}" for i in range(40)]
    (directory / "queries.xyz").write_text("\n".join(queries) + "\n")


def _run_search_case(cloud: str, case: str, directory: Path, capsys) -> tuple[bytes, str]:
    """The primary output and stderr of one search command, run in
    ``directory`` so that the cloud paths in stderr are relative."""
    cloud_args, radius = SEARCH_CLOUDS[cloud]
    argv = [*SEARCH_CASES[case], *([radius] if case.startswith("range") else []),
            *cloud_args, "--out", "out.csv"]
    _write_lattice(directory)
    capsys.readouterr()
    assert main(argv) == 0
    return (directory / "out.csv").read_bytes(), capsys.readouterr().err


@pytest.mark.parametrize("case", SEARCH_CASES)
@pytest.mark.parametrize("cloud", SEARCH_CLOUDS)
def test_search_outputs_match_golden(cloud, case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    out, err = _run_search_case(cloud, case, tmp_path, capsys)
    assert out == (GOLDEN_SEARCH / f"{cloud}.{case}.csv").read_bytes()
    assert err == (GOLDEN_SEARCH / f"{cloud}.{case}.stderr").read_text()


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.lists(st.integers()) | st.dictionaries(st.text(), inner)),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(value=json_values)
def test_json_text_equals_indented_json_dumps(value):
    # Floats include nan and both infinities; text includes non-ASCII.
    assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [[1, True, 0, False], [True], [2**70, -1, 0]])
def test_json_text_writes_bools_in_int_lists_as_json_bools(value):
    # bool is an int subclass; only a list of exact ints takes the one-join path.
    assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)


def test_sort_writes_the_stable_permutation_one_index_a_line(tmp_path):
    out = tmp_path / "perm.txt"
    assert main(["sort", "--synthetic", "500", "--chunks", "7", "--out", str(out)]) == 0
    pts = synthetic_cloud(500, 0)
    want = "".join(f"{i}\n" for i in np.argsort(pts[:, 0], kind="stable").tolist())
    assert out.read_text() == want
