"""Every shipped example in ``pipelines/`` loads and runs end to end, and its
``optimize``, ``simulate`` and ``verify`` outputs match the checked-in
bytes in ``tests/golden/<pipeline>/``. Every shipped example is a tree, so four
reconvergent pipelines, each checked in as
``tests/golden/reconvergent/<name>/pipeline.json``, pin the saturated-set
search's bytes beside it: three the other tests use too, and one where
Bland's rule's first optimum is not the least optimal start vector.
Each of these graphs also pins ``simulate --trace``'s occupancy rows in
``trace.c<chunks>.s<stride>.csv``, at one chunk and stride 1 and at four
chunks and stride 3, and its 32-chunk ``simulate`` summary in
``simulate.c32.json``. One overflowing 32-chunk summary pins the cycle and
occupancy of each overflow. The ``verify`` line of each is pinned in
``verify.txt``, as each shipped pipeline's is."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from pointpipe.cli import VERIFY_FAILED, main
from pointpipe.graph import load_pipeline
from pointpipe.optimizer import ScheduleSolution

from conftest import GOLDEN

PIPELINES = sorted((Path(__file__).parent.parent / "pipelines").glob("*.json"))
# In diamond7_tiebreak, Bland's rule, run from the lower bounds, stops at an
# optimal vertex with s2 at 29, not at the least one, with s2 at 0: the
# simplex that once priced each saturated set needed a tiebreak pass for
# it. Its golden pins the least vector.
RECONVERGENT = {name: GOLDEN / "reconvergent" / name / "pipeline.json"
                for name in ("diamond", "diamond5_1", "diamond_chain", "diamond7_tiebreak")}
# Each traced pipeline by its golden directory under tests/golden.
TRACED = {path.stem: path for path in PIPELINES} | {
    f"reconvergent/{name}": path for name, path in RECONVERGENT.items()}


def test_shipped_pipelines_keep_duration_identity():
    assert PIPELINES
    for path in PIPELINES:
        g = load_pipeline(str(path))
        for s in g.stages:
            # Active ticks at the read rate and at the write rate.
            d = g.duration[s.id]
            assert d * g.in_rate[s.id] == g.input_volume[s.id] * g.unit
            assert d * g.out_rate[s.id] == g.work[s.id] * g.unit


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
    path = RECONVERGENT[name]
    golden = path.parent
    schedule = tmp_path / "schedule.json"
    for chunks in ("1", "4"):
        capsys.readouterr()
        assert main(["optimize", str(path), "--chunks", chunks, "--out", str(schedule)]) == 0
        assert capsys.readouterr().err == (golden / f"optimize.c{chunks}.stderr").read_text()
        assert schedule.read_bytes() == (golden / f"optimize.c{chunks}.json").read_bytes()


@pytest.mark.parametrize("name", sorted(RECONVERGENT))
def test_reconvergent_verify_matches_golden(name, capsys):
    # Besides the diamond, the benchmark's slowest verify; two diamonds in a
    # row, where the walk shifts at the cut between them and prices each
    # diamond's two paths together; and the tiebreak diamond, where the
    # oracle, which never runs the solver, finds the same least vector.
    path = RECONVERGENT[name]
    assert main(["verify", str(path)]) == 0
    assert capsys.readouterr().out == (path.parent / "verify.txt").read_text()


@pytest.mark.parametrize("chunks, stride", [("1", "1"), ("4", "3")])
@pytest.mark.parametrize("name", sorted(TRACED))
def test_trace_rows_match_golden(name, chunks, stride, tmp_path):
    path = TRACED[name]
    schedule = tmp_path / "schedule.json"
    trace = tmp_path / "trace.csv"
    assert main(["optimize", str(path), "--chunks", chunks, "--out", str(schedule)]) == 0
    assert main(["simulate", str(path), str(schedule), "--chunks", chunks,
                 "--stride", stride, "--trace", str(trace),
                 "--summary", str(tmp_path / "summary.json")]) == 0
    assert trace.read_bytes() == (GOLDEN / name / f"trace.c{chunks}.s{stride}.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(TRACED))
def test_simulate_summary_matches_golden_at_32_chunks(name, tmp_path):
    path = TRACED[name]
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
    path = RECONVERGENT["diamond_chain"]
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
