"""Every shipped example in ``pipelines/`` loads and runs end to end, and its
``optimize`` and ``simulate`` outputs match the checked-in bytes in
``tests/golden/<pipeline>/``. Every shipped example is a tree, so three
reconvergent pipelines from the other tests pin the LP search's bytes in
``tests/golden/reconvergent/<name>/``."""

from pathlib import Path

import pytest

from pointpipe.cli import main
from pointpipe.graph import check_duration_identity, load_pipeline

from conftest import DIAMOND
from test_optimizer import DIAMOND_CHAIN
from test_oracle import DIAMOND5_1

PIPELINES = sorted((Path(__file__).parent.parent / "pipelines").glob("*.json"))
GOLDEN = Path(__file__).parent / "golden"
RECONVERGENT = {"diamond": DIAMOND, "diamond5_1": DIAMOND5_1, "diamond_chain": DIAMOND_CHAIN}


def test_shipped_pipelines_keep_duration_identity():
    assert PIPELINES
    for path in PIPELINES:
        check_duration_identity(load_pipeline(str(path)))


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
    assert main(["verify", str(path)]) == 0


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
