import pytest

from _pipegen import suite
from pointpipe.graph import parse_pipeline
from pointpipe.oracle import verify_against_oracle


def test_two_stage_local_matches(identical_rates):
    report = verify_against_oracle(identical_rates)
    assert report.matches and report.graph_feasible
    assert report.oracle_total == report.solver_total == 1


def test_knn_stencil_matches_within_small_horizon(knn_stencil):
    report = verify_against_oracle(knn_stencil, horizon=128)
    assert report.matches
    assert report.solver_total == report.oracle_total


def test_infeasible_horizon_agrees(global_edge):
    # The sorter cannot start before cycle 8; a 3-cycle horizon fits nothing.
    report = verify_against_oracle(global_edge, horizon=3)
    assert not report.graph_feasible
    assert report.matches  # both report infeasible
    assert report.solver_total is None and report.oracle_total is None


def test_random_sample_matches():
    for g in suite(20, start_seed=400):
        report = verify_against_oracle(g)
        assert report.matches, str(report)
        # The oracle's walk keeps the first optimum it meets, the least
        # start vector in topological order, which on these graphs is the
        # declaration order the solver's tie-break ranks by.
        assert report.solver_starts == report.oracle_starts, str(report)
