"""Every shipped example in ``pipelines/`` loads and runs end to end, and its
``optimize``, ``simulate`` and ``verify`` outputs match the checked-in
bytes in ``tests/golden/<pipeline>/``. Every shipped example is a tree, so four
reconvergent pipelines pin the saturated-set search's bytes in
``tests/golden/reconvergent/<name>/``: three from the other tests, and one
where Bland's rule's first optimum is not the least optimal start vector.
Each of these graphs also pins ``simulate --trace``'s occupancy rows in
``trace.c<chunks>.s<stride>.csv``, at one chunk and stride 1 and at four
chunks and stride 3, and its 32-chunk ``simulate`` summary in
``simulate.c32.json``. One overflowing 32-chunk summary pins the cycle and
occupancy of each overflow. The ``verify`` lines of the diamond, the
benchmark's ``diamond5_1`` and the two-diamond chain are pinned in
``verify.txt``, as each shipped pipeline's is."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from pointpipe.cli import VERIFY_FAILED, main
from pointpipe.graph import load_pipeline
from pointpipe.optimizer import ScheduleSolution

from conftest import DIAMOND
from test_optimizer import DIAMOND_CHAIN
from test_oracle import DIAMOND5_1

PIPELINES = sorted((Path(__file__).parent.parent / "pipelines").glob("*.json"))
GOLDEN = Path(__file__).parent / "golden"
# Bland's rule, run from the lower bounds, stops here at an optimal vertex
# with s2 at 29, not at the least one, with s2 at 0: the simplex that once
# priced each saturated set needed a tiebreak pass for it. Its golden pins
# the least vector.
DIAMOND7_TIEBREAK = """{"input_work": 24, "stages": [
  {"id": "s0", "kind": "Stencil", "i_shape": [1, 3], "o_shape": [2, 1], "stage": 0,
   "i_freq": 2, "o_freq": 2, "reuse": [2, 1]},
  {"id": "s1", "kind": "Global", "i_shape": [2, 1], "o_shape": [1, 1], "stage": 0,
   "i_freq": 3},
  {"id": "s2", "kind": "Elementwise", "i_shape": [2, 1], "o_shape": [1, 2], "stage": 3,
   "i_freq": 2},
  {"id": "s3", "kind": "Elementwise", "i_shape": [1, 1], "o_shape": [1, 1], "stage": 1},
  {"id": "s4", "kind": "Elementwise", "i_shape": [1, 1], "o_shape": [1, 1], "stage": 1},
  {"id": "s5", "kind": "Elementwise", "i_shape": [1, 1], "o_shape": [1, 1], "stage": 1},
  {"id": "s6", "kind": "Elementwise", "i_shape": [1, 1], "o_shape": [1, 1], "stage": 1}
], "edges": [["s0", "s1"], ["s0", "s2"], ["s1", "s3"], ["s2", "s3"], ["s3", "s4"],
             ["s4", "s5"], ["s5", "s6"]]}"""
RECONVERGENT = {"diamond": DIAMOND, "diamond5_1": DIAMOND5_1, "diamond_chain": DIAMOND_CHAIN,
                "diamond7_tiebreak": DIAMOND7_TIEBREAK}
TRACED = {path.stem: path.read_text() for path in PIPELINES} | {
    f"reconvergent/{name}": text for name, text in RECONVERGENT.items()}


def test_shipped_pipelines_keep_duration_identity():
    assert PIPELINES
    for path in PIPELINES:
        g = load_pipeline(str(path))
        for s in g.stages:
            assert Fraction(g.input_volume[s.id]) / s.tau_in == Fraction(g.work[s.id]) / s.tau_out


@pytest.mark.parametrize("path", PIPELINES, ids=lambda p: p.stem)
def test_shipped_pipeline_optimizes_simulates_and_verifies(path, tmp_path, capsys):
    golden = GOLDEN / path.stem
    schedule = tmp_path / "schedule.json"
    summary = tmp_path / "summary.json"
    for chunks in ("1", "4"):
        capsys.readouterr()
        assert main(["optimize", str(path), "--chunks", chunks, "--out", str(schedule)]) == 0
        assert capsys.readouterr().err == (golden / f"optimize.c{chunks}.stderr").read_text()
        assert schedule.read_bytes() == (golden / f"optimize.c{chunks}.json").read_bytes()
        assert main(["simulate", str(path), str(schedule), "--chunks", chunks,
                     "--summary", str(summary)]) == 0
        assert summary.read_bytes() == (golden / f"simulate.c{chunks}.json").read_bytes()
    capsys.readouterr()
    assert main(["verify", str(path)]) == 0
    assert capsys.readouterr().out == (golden / "verify.txt").read_text()


@pytest.mark.parametrize("name", sorted(RECONVERGENT))
def test_reconvergent_pipeline_optimizes_to_golden(name, tmp_path, capsys):
    golden = GOLDEN / "reconvergent" / name
    path = tmp_path / f"{name}.json"
    path.write_text(RECONVERGENT[name])
    schedule = tmp_path / "schedule.json"
    for chunks in ("1", "4"):
        capsys.readouterr()
        assert main(["optimize", str(path), "--chunks", chunks, "--out", str(schedule)]) == 0
        assert capsys.readouterr().err == (golden / f"optimize.c{chunks}.stderr").read_text()
        assert schedule.read_bytes() == (golden / f"optimize.c{chunks}.json").read_bytes()


@pytest.mark.parametrize("name", ["diamond", "diamond5_1", "diamond_chain"])
def test_reconvergent_verify_matches_golden(name, tmp_path, capsys):
    # Besides the diamond, the benchmark's slowest verify, and two diamonds
    # in a row: the walk shifts at the cut between them and prices each
    # diamond's two paths together.
    path = tmp_path / f"{name}.json"
    path.write_text(RECONVERGENT[name])
    assert main(["verify", str(path)]) == 0
    golden = GOLDEN / "reconvergent" / name / "verify.txt"
    assert capsys.readouterr().out == golden.read_text()


def test_tiebreak_diamond_verifies(tmp_path, capsys):
    # The oracle, which never runs the solver, finds the same least vector.
    path = tmp_path / "diamond7_tiebreak.json"
    path.write_text(DIAMOND7_TIEBREAK)
    assert main(["verify", str(path)]) == 0
    starts = "{'s0': 0, 's1': 32, 's2': 0, 's3': 32, 's4': 33, 's5': 34, 's6': 35}"
    assert capsys.readouterr().out == (
        f"match: oracle total 101 at {starts}, solver total 101 at {starts} "
        "(1 candidates, horizon 2240)\n")


@pytest.mark.parametrize("chunks, stride", [("1", "1"), ("4", "3")])
@pytest.mark.parametrize("name", sorted(TRACED))
def test_trace_rows_match_golden(name, chunks, stride, tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(TRACED[name])
    schedule = tmp_path / "schedule.json"
    trace = tmp_path / "trace.csv"
    assert main(["optimize", str(path), "--chunks", chunks, "--out", str(schedule)]) == 0
    assert main(["simulate", str(path), str(schedule), "--chunks", chunks,
                 "--stride", stride, "--trace", str(trace),
                 "--summary", str(tmp_path / "summary.json")]) == 0
    assert trace.read_bytes() == (GOLDEN / name / f"trace.c{chunks}.s{stride}.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(TRACED))
def test_simulate_summary_matches_golden_at_32_chunks(name, tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(TRACED[name])
    schedule = tmp_path / "schedule.json"
    summary = tmp_path / "summary.json"
    assert main(["optimize", str(path), "--chunks", "32", "--out", str(schedule)]) == 0
    assert main(["simulate", str(path), str(schedule), "--chunks", "32",
                 "--summary", str(summary)]) == 0
    assert summary.read_bytes() == (GOLDEN / name / "simulate.c32.json").read_bytes()


def test_overflow_summary_matches_golden(tmp_path, capsys):
    # The 32-chunk diamond chain with its interval cut from 98 to 45/2, so
    # chunks overlap and peaks fall between integer cycles, and with every
    # capacity halved: each edge overflows, at the ceiling of its peak time.
    path = tmp_path / "graph.json"
    path.write_text(DIAMOND_CHAIN)
    schedule = tmp_path / "schedule.json"
    summary = tmp_path / "summary.json"
    assert main(["optimize", str(path), "--chunks", "32", "--out", str(schedule)]) == 0
    sol = ScheduleSolution.from_json_dict(json.loads(schedule.read_text()))
    sol.initiation_interval = Fraction(45, 2)
    sol.buffer_sizes = {key: size / 2 for key, size in sol.buffer_sizes.items()}
    schedule.write_text(sol.dumps())
    capsys.readouterr()
    assert main(["simulate", str(path), str(schedule), "--chunks", "32",
                 "--summary", str(summary)]) == VERIFY_FAILED
    assert capsys.readouterr().err == (
        "simulation violated the schedule: 0 stalls, 9 overflows\n")
    golden = GOLDEN / "reconvergent" / "diamond_chain" / "simulate.c32.overflow.json"
    assert summary.read_bytes() == golden.read_bytes()
