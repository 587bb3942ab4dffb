from fractions import Fraction as F
from math import ceil

import pytest

from _pipegen import generate, suite
from conftest import DIAMOND
from pointpipe import optimizer, solver
from pointpipe.graph import parse_pipeline
from pointpipe.optimizer import (
    ScheduleError,
    ScheduleSolution,
    build_constraints,
    default_horizon,
    edge_key,
    edge_models,
    optimize,
    solve,
)
from pointpipe.oracle import exhaustive_minimum


def _single_producer(g):
    consumers = [e.consumer for e in g.edges]
    return len(consumers) == len(set(consumers))


def _trees(count, **kw):
    return [g for g in suite(count, **kw) if _single_producer(g)]


@pytest.fixture
def milp_solve(monkeypatch):
    """``solve`` with the closed form switched off: the MILP alone."""
    def run(system):
        with monkeypatch.context() as m:
            m.setattr(optimizer, "_tree_starts", lambda graph, models: None)
            return solve(system)

    return run


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


def test_max_floor_offset_is_where_the_peak_first_rises():
    branches = set()
    for g in _trees(60, start_seed=5000) + _trees(30, shape="tree"):
        for m in edge_models(g):
            least = m.peak(m.min_offset)
            hi = m.max_floor_offset
            last = m.min_offset + ceil(m.depth_c + m.dur_c + m.dur_p + m.drain) + 4
            flat = [d for d in range(m.min_offset, last + 1) if m.peak(d) == least]
            # peak never falls, so the flat offsets are one run from min_offset
            assert flat == list(range(m.min_offset, flat[-1] + 1)), m.key
            if hi is None:
                assert least == m.volume and flat[-1] == last, m.key
            else:
                assert flat[-1] == hi < last, m.key
            assert least > 0, m.key
            branches.add(hi is None)
    assert branches == {True, False}


def test_reconvergent_graph_is_one_milp(monkeypatch):
    # The tie-break rides in the objective: one exact solve gives the least
    # start vector among the minimal-total schedules, as the oracle does.
    calls = []

    def counting(prob, *args, **kwargs):
        calls.append(prob)
        return solver.solve_milp(prob, *args, **kwargs)

    monkeypatch.setattr(optimizer, "solve_milp", counting)
    g = parse_pipeline(DIAMOND)
    sol = solve(build_constraints(g))
    assert len(calls) == 1
    total, starts, _ = exhaustive_minimum(g, default_horizon(g))
    assert (sol.total_buffer, sol.start_cycles) == (total, starts)


def test_closed_form_equals_milp_on_trees(milp_solve):
    trees = _trees(16, shape="tree") + _trees(40, start_seed=5000)[:15]
    assert len(trees) == 31
    # Branching trees, and trees whose least schedule lifts a source off
    # cycle 0 (a consumer deeper than its producer is pinned below it).
    assert any(len(g.consumers_of(sid)) > 1 for g in trees for sid in g.topo_order)
    assert any(solve(build_constraints(g)).start_cycles[sid] > 0
               for g in trees for sid in g.sources)
    for g in trees:
        system = build_constraints(g)
        closed, milp = solve(system), milp_solve(system)
        assert closed.dumps() == milp.dumps()
        # verify prints the start dict, so its order counts too
        assert list(closed.start_cycles.items()) == list(milp.start_cycles.items())


def test_closed_form_total_equals_exhaustive_minimum():
    for g in _trees(60, start_seed=5000) + _trees(30, shape="tree"):
        sol = solve(build_constraints(g))
        total, _, _ = exhaustive_minimum(g, default_horizon(g))
        assert sol.total_buffer == total


def test_horizon_short_of_least_schedule_falls_back_to_milp(milp_solve):
    # Seed 5845's least optimal schedule starts s1 at cycle 2; a horizon of 1
    # still admits a schedule, just not an optimal one of the closed form.
    g = generate(5845)
    least = solve(build_constraints(g)).start_cycles
    horizon = max(least.values()) - 1
    system = build_constraints(g, horizon=horizon)
    sol = solve(system)
    assert max(sol.start_cycles.values()) <= horizon
    assert sol.dumps() == milp_solve(system).dumps()
