"""The command line keeps its documented exit codes on bad input."""

from pathlib import Path

import pytest

from conftest import DIAMOND
from pointpipe import optimizer
from pointpipe.cli import USAGE, main

PIPELINES = sorted((Path(__file__).parent.parent / "pipelines").glob("*.json"))
KNN_STENCIL = str(Path(__file__).parent.parent / "pipelines" / "knn_stencil.json")
CLOUD = ["--synthetic", "50", "--queries", "3"]

BAD_INPUTS = [
    ["range", *CLOUD, "--radius", "0.2", "--deadline", "abc"],
    ["range", *CLOUD, "--radius", "0"],
    ["sort", *CLOUD, "--cuts", "a,b"],
    ["sort", *CLOUD, "--chunks", "0"],
    ["profile-deadline", *CLOUD, "--fraction", "x"],
    ["profile-deadline", *CLOUD, "--fraction", "1/0"],
    ["knn", *CLOUD, "--k", "0"],
    ["knn", *CLOUD, "--deadline-frac", "x"],
    ["knn", *CLOUD, "--deadline-frac", "1/0"],
    ["knn", "--synthetic", "50", "--queries", "0"],
    ["split", *CLOUD, "--grid", "0x1x1"],
    ["split", *CLOUD, "--serial", "0"],
    ["stats-chunks", *CLOUD, "--grid", "0x1x1"],
    ["optimize", KNN_STENCIL, "--chunks", "0"],
]


@pytest.mark.parametrize("argv", BAD_INPUTS, ids=lambda a: " ".join(a[:1] + a[-2:]))
def test_bad_input_is_a_usage_error(argv, tmp_path, capsys):
    assert main([*argv, "--out", str(tmp_path / "out")]) == USAGE
    assert capsys.readouterr().err.startswith("error: ")


def test_simulate_rejects_zero_chunks(tmp_path, capsys):
    schedule = str(tmp_path / "schedule.json")
    assert main(["optimize", KNN_STENCIL, "--out", schedule]) == 0
    capsys.readouterr()
    assert main(["simulate", KNN_STENCIL, schedule, "--chunks", "0"]) == USAGE
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["optimize", "verify"])
def test_search_limit_is_a_schedule_error(command, tmp_path, monkeypatch, capsys):
    # verify must not read an unfinished search as an infeasible schedule
    # (which would be an oracle mismatch, exit 1).
    diamond = tmp_path / "diamond.json"
    diamond.write_text(DIAMOND)
    monkeypatch.setattr(optimizer, "MAX_SATURATED_SETS", 0)
    assert main([command, str(diamond)]) == USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "saturated-edge sets" in err


@pytest.mark.parametrize("command", ["optimize", "verify"])
def test_shipped_pipelines_never_reach_the_milp(command, monkeypatch, capsys):
    # Every shipped pipeline is single-producer: the closed form schedules it.
    def refuse(*args, **kwargs):
        raise AssertionError("saturated-edge search called")

    monkeypatch.setattr(optimizer, "_search", refuse)
    assert PIPELINES
    for path in PIPELINES:
        assert main([command, str(path)]) == 0, path
