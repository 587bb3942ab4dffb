"""Every shipped example in ``pipelines/`` loads and runs end to end, and its
``optimize`` and ``simulate`` outputs match the checked-in bytes in
``tests/golden/<pipeline>/``."""

from pathlib import Path

import pytest

from pointpipe.cli import main
from pointpipe.graph import check_duration_identity, load_pipeline

PIPELINES = sorted((Path(__file__).parent.parent / "pipelines").glob("*.json"))
GOLDEN = Path(__file__).parent / "golden"


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
