from fractions import Fraction as F

import pytest

from _pipegen import suite
from pointpipe.graph import parse_pipeline
from pointpipe.optimizer import (
    ScheduleError,
    ScheduleSolution,
    build_constraints,
    edge_key,
    optimize,
    solve,
)


def test_knn_stencil_pruned_row_budget(knn_stencil):
    system = build_constraints(knn_stencil, pruned=True)
    # 2 start bounds + 2 dependency endpoints + overwrite start + 2 buffer
    # branches + saturation cap.
    assert system.constraint_count <= 8


def test_knn_stencil_unpruned_covers_windows(knn_stencil):
    pruned = build_constraints(knn_stencil, pruned=True)
    unpruned = build_constraints(knn_stencil, pruned=False, horizon=200)
    window = max(knn_stencil.duration.values())
    assert unpruned.constraint_count >= window
    assert unpruned.constraint_count > pruned.constraint_count


def test_single_stage_zero_objective():
    g = parse_pipeline(
        """{"input_work": 9, "stages": [
            {"id": "only", "kind": "Elementwise", "i_shape": [1, 1], "o_shape": [1, 1], "stage": 0}
        ], "edges": []}"""
    )
    sol = solve(build_constraints(g))
    assert sol.total_buffer == 0
    assert sol.buffer_sizes == {}
    assert sol.start_cycles == {"only": 0}


def test_identical_rates_single_transfer_unit(identical_rates):
    sol = solve(build_constraints(identical_rates))
    assert sol.total_buffer == 1
    # One-cycle write-to-read latency is the only gap between the stages.
    assert sol.start_cycles["b"] == sol.start_cycles["a"] + 1


def test_global_consumer_starts_at_producer_end(global_edge):
    sol = solve(build_constraints(global_edge))
    g = global_edge
    producer_end = (
        sol.start_cycles["src"]
        + g.stage("src").stage_depth
        + g.duration["src"]
    )
    assert sol.start_cycles["sorter"] == producer_end
    assert sol.buffer_sizes["src->sorter"] == g.edge_volume[g.edges[0]]


def test_image_stencil_three_row_budget(image_stencil):
    sol = solve(build_constraints(image_stencil))
    assert sol.total_buffer <= 15


def test_pruning_preserves_optimum_sample():
    for g in suite(25):
        a = solve(build_constraints(g, pruned=True))
        b = solve(build_constraints(g, pruned=False))
        assert a.total_buffer == b.total_buffer


def test_global_edges_dominate_local_rule():
    # On every solved graph, a Global consumer's start is at or past its
    # producer's write end; local edges are free to overlap.
    for g in suite(25):
        sol = solve(build_constraints(g))
        for e in g.edges:
            if g.stage(e.consumer).dependency_class != "global":
                continue
            p = g.stage(e.producer)
            end = sol.start_cycles[e.producer] + p.stage_depth + g.duration[e.producer]
            assert sol.start_cycles[e.consumer] >= end


def test_monotone_in_input_work(local_chain):
    doc = """{"input_work": %d, "stages": [
        {"id": "s1", "kind": "Elementwise", "i_shape": [1, 1], "o_shape": [1, 1], "stage": 0},
        {"id": "s2", "kind": "Reduction", "i_shape": [2, 1], "o_shape": [1, 1], "o_freq": 2, "stage": 1},
        {"id": "s3", "kind": "Elementwise", "i_shape": [1, 1], "o_shape": [1, 1], "stage": 0}
    ], "edges": [["s1", "s2"], ["s2", "s3"]]}"""
    totals, spans = [], []
    for w0 in (12, 24, 48):
        sol = solve(build_constraints(parse_pipeline(doc % w0)))
        totals.append(sol.total_buffer)
        spans.append(sol.makespan)
    assert totals == sorted(totals)
    assert spans == sorted(spans)


def test_solve_deterministic(knn_stencil):
    a = solve(build_constraints(knn_stencil))
    b = solve(build_constraints(knn_stencil))
    assert a.start_cycles == b.start_cycles
    assert a.buffer_sizes == b.buffer_sizes
    assert a.dumps() == b.dumps()


def test_horizon_exhausted_reports(global_edge):
    with pytest.raises(ScheduleError, match="horizon"):
        build_constraints(global_edge, horizon=3)


def test_solution_json_roundtrip(knn_stencil):
    sol = optimize(knn_stencil)
    doc = sol.to_json_dict()
    back = ScheduleSolution.from_json_dict(doc)
    assert back.start_cycles == sol.start_cycles
    assert back.buffer_sizes == sol.buffer_sizes
    assert back.total_buffer == sol.total_buffer
    assert back.makespan == sol.makespan


def test_constraint_counts_attached(knn_stencil):
    sol = optimize(knn_stencil)
    assert sol.constraint_counts["pruned"] <= 8
    assert sol.constraint_counts["unpruned"] > sol.constraint_counts["pruned"]


def test_derived_row_counts_equal_both_builds():
    # optimize builds one system and derives the other mode's row count.
    for g in suite(8):
        pruned = build_constraints(g, pruned=True).constraint_count
        unpruned = build_constraints(g, pruned=False).constraint_count
        want = {"pruned": pruned, "unpruned": unpruned}
        assert optimize(g).constraint_counts == want
        assert optimize(g, pruned=False).constraint_counts == want
