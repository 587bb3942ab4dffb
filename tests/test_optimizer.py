import hashlib
import json
from fractions import Fraction as F
from math import ceil

import pytest

from _pipegen import generate, suite
from _reference import ref_models
from conftest import reconvergent
from pointpipe import optimizer, solver
from pointpipe.graph import StageKind, parse_pipeline
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


def _reconvergent(count, **kw):
    return [g for g in suite(count, **kw) if not _single_producer(g)]


@pytest.fixture
def search_solve(monkeypatch):
    """``solve`` with the closed form switched off: the saturated-edge
    search alone."""
    def run(system):
        with monkeypatch.context() as m:
            m.setattr(optimizer, "_tree_starts", lambda graph, models: None)
            return solve(system)

    return run


def test_knn_stencil_pruned_row_budget(knn_stencil):
    # 2 start bounds + 2 dependency endpoints + overwrite start + 2 buffer
    # branches + saturation cap.
    assert optimize(knn_stencil).constraint_counts["pruned"] <= 8


def test_knn_stencil_unpruned_covers_windows(knn_stencil):
    counts = optimize(knn_stencil, horizon=200).constraint_counts
    window = F(max(knn_stencil.duration.values()), knn_stencil.ticks)
    assert counts["unpruned"] >= window
    assert counts["unpruned"] > counts["pruned"]


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
        + F(g.duration["src"], g.ticks)
    )
    assert sol.start_cycles["sorter"] == producer_end
    assert sol.buffer_sizes["src->sorter"] == g.edge_volume[g.edges[0]]


def test_image_stencil_three_row_budget(image_stencil):
    sol = solve(build_constraints(image_stencil))
    assert sol.total_buffer <= 15


def _window_family_floor(m):
    """Least integer offset allowed by the first-read row and every row of
    the per-timestamp availability family over the consumer's read window."""
    steps = m.window_steps
    bounds = [F(m.depth_p - m.depth_c + 1)]
    for n in range(1, steps + 1):
        off = m.depth_c + m.drain * F(n, steps)
        demand = min(m.volume, m.in_rate * (off - m.depth_c))
        bounds.append(demand / m.out_rate - (off - 1 - m.depth_p))
    return ceil(max(bounds))


def test_pruning_preserves_optimum_sample():
    for g in suite(25):
        for m, r in zip(edge_models(g), ref_models(g)):
            if not m.is_global:
                assert _window_family_floor(r) == m.min_offset, m.key
        # The unpruned count holds each local edge's whole window family.
        counts = optimize(g).constraint_counts
        family = sum(m.window_steps - 1 for m in edge_models(g) if not m.is_global)
        assert counts["unpruned"] == counts["pruned"] + family


def test_global_edges_dominate_local_rule():
    # On every solved graph, a Global consumer's start is at or past its
    # producer's write end; local edges are free to overlap.
    for g in suite(25):
        sol = solve(build_constraints(g))
        for e in g.edges:
            if g.stage(e.consumer).kind is not StageKind.GLOBAL:
                continue
            p = g.stage(e.producer)
            end = sol.start_cycles[e.producer] + p.stage_depth + F(g.duration[e.producer], g.ticks)
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


def test_suite_solutions_keep_their_digest():
    # sha256 of optimize(g).dumps() concatenated over the 600 graphs in
    # suite order: every start, buffer, overwrite start, total, makespan
    # and row count, byte for byte, as the Fraction model gave them.
    digest = hashlib.sha256()
    for g in suite(600, start_seed=20000):
        digest.update(optimize(g).dumps().encode())
    assert digest.hexdigest() == (
        "412d8f0f572cd95b581fed8a121b975e7674e051af9622d204a8d3ee8fa4bcd2")


def test_derived_row_counts_equal_both_builds():
    # The formulation's rows, counted in closed form in either mode: the
    # counts a build of every row gives.
    counts = [(9, 9), (32, 106), (22, 60), (12, 15), (12, 65), (15, 91), (19, 121), (19, 55)]
    for g, (pruned, unpruned) in zip(suite(8), counts):
        assert build_constraints(g).constraint_count == pruned
        assert optimize(g).constraint_counts == {"pruned": pruned, "unpruned": unpruned}


# 9 elements written 4 a cycle and read 1 a cycle: b1 and b2 cross at
# d = 9/4, above min_offset 1. Every chord above min_offset in the suites
# sits halfway between two integers, where both rates weigh the same.
QUARTER = """{"input_work": 9, "stages": [
  {"id": "a", "kind": "Elementwise", "i_shape": [1, 4], "o_shape": [1, 4], "stage": 0},
  {"id": "b", "kind": "Elementwise", "i_shape": [1, 1], "o_shape": [1, 1], "stage": 0}
], "edges": [["a", "b"]]}"""


def test_pieces_are_g_at_every_integer_offset():
    # From min_offset to a few cycles past the b1/b2 crossing, walking the
    # pieces from g(min_offset) gives g at every integer offset.
    kinds = set()
    for g in [*suite(200, start_seed=30000), parse_pipeline(QUARTER)]:
        for m in edge_models(g):
            kinks, slopes = m.pieces
            assert all(type(k) is int for k in kinks), m.key
            assert all(a < b for a, b in zip((m.min_offset, *kinks), kinks)), m.key
            assert len(slopes) == len(kinks) + 1
            assert all(a < b for a, b in zip(slopes, slopes[1:])), m.key
            (s1, a1), (s2, a2) = m.branches
            cross = m.min_offset if s1 == s2 else ceil(F(a2 - a1, s1 - s2))
            value = m.g(m.min_offset)
            for d in range(m.min_offset, max(m.min_offset, cross) + 4):
                assert value == m.g(d), (m.key, d)
                value += slopes[sum(k <= d for k in kinks)]
            kinds.add(len(kinks))
    # Parallel or passed crossings, crossings on an integer and chords all
    # occur.
    assert kinds == {0, 1, 2}


def test_max_floor_offset_is_where_the_peak_first_rises():
    branches = set()
    for g in _trees(60, start_seed=5000) + _trees(30, shape="tree"):
        for m in edge_models(g):
            least = m.peak(m.min_offset)
            hi = m.max_floor_offset
            last = m.min_offset + ceil(F(m.depth_c + m.dur_c + m.dur_p + m.drain, m.ticks)) + 4
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


def test_closed_form_equals_search_on_trees(search_solve):
    trees = _trees(16, shape="tree") + _trees(40, start_seed=5000)[:15]
    assert len(trees) == 31
    # Branching trees, and trees whose least schedule lifts a source off
    # cycle 0 (a consumer deeper than its producer is pinned below it).
    assert any(sum(e.producer == sid for e in g.edges) > 1
               for g in trees for sid in g.topo_order)
    assert any(solve(build_constraints(g)).start_cycles[sid] > 0
               for g in trees for sid in g.topo_order if not g.producers_of(sid))
    for g in trees:
        system = build_constraints(g)
        closed, searched = solve(system), search_solve(system)
        assert closed.dumps() == searched.dumps()
        # verify prints the start dict, so its order counts too
        assert list(closed.start_cycles.items()) == list(searched.start_cycles.items())


def test_closed_form_total_equals_exhaustive_minimum():
    for g in _trees(60, start_seed=5000) + _trees(30, shape="tree"):
        sol = solve(build_constraints(g))
        total, _, _ = exhaustive_minimum(g, default_horizon(g))
        assert sol.total_buffer == total


def test_horizon_short_of_least_schedule_falls_back_to_search(search_solve):
    # Seed 5845's least optimal schedule starts s1 at cycle 2; a horizon of 1
    # still admits a schedule, just not an optimal one of the closed form.
    g = generate(5845)
    least = solve(build_constraints(g)).start_cycles
    horizon = max(least.values()) - 1
    system = build_constraints(g, horizon=horizon)
    sol = solve(system)
    assert max(sol.start_cycles.values()) <= horizon
    assert sol.dumps() == search_solve(system).dumps()
    total, starts, _ = exhaustive_minimum(g, horizon)
    assert (sol.total_buffer, sol.start_cycles) == (total, starts)


def test_reconvergent_graphs_equal_exhaustive_minimum():
    # Totals and start vectors, on horizons one cycle short of each
    # optimum's latest start, where the horizon binds, and two past it.
    graphs = _reconvergent(1430, start_seed=30000)
    assert len(graphs) >= 200
    refuted = 0
    for g in graphs:
        latest = max(solve(build_constraints(g)).start_cycles.values())
        for horizon in (latest - 1, latest + 2):
            try:
                sol = solve(build_constraints(g, horizon=horizon))
                expected = (sol.total_buffer, sol.start_cycles)
            except ScheduleError:
                expected = (None, None)
            total, starts, _ = exhaustive_minimum(g, horizon)
            assert (total, starts) == expected, horizon
            refuted += total is None
    # A cycle short, most graphs have no schedule at all, and the oracle
    # must exhaust the box to say so.
    assert refuted >= 150


# p feeds a Global stage a and, with the slow source b, the join c. Every
# edge is a bridge, yet at tight horizons the least optimal schedule holds
# p at cycle 0, not at an offset that its edge into c alone would choose.
JOIN = """{"input_work": 4, "stages": [
  {"id": "p", "kind": "Elementwise", "i_shape": [1, 1], "o_shape": [1, 1], "stage": 0},
  {"id": "a", "kind": "Global", "i_shape": [1, 1], "o_shape": [1, 1], "stage": 0},
  {"id": "b", "kind": "Elementwise", "i_shape": [1, 1], "o_shape": [1, 1],
   "i_freq": 4, "o_freq": 4, "stage": 0},
  {"id": "c", "kind": "Elementwise", "i_shape": [1, 1], "o_shape": [1, 1], "stage": 3}
], "edges": [["p", "a"], ["p", "c"], ["b", "c"]]}"""


@pytest.mark.parametrize("horizon", range(10, 15))
def test_join_of_bridges_equals_exhaustive_minimum(horizon):
    g = parse_pipeline(JOIN)
    sol = solve(build_constraints(g, horizon=horizon))
    total, starts, _ = exhaustive_minimum(g, horizon)
    assert (sol.total_buffer, sol.start_cycles) == (total, starts)
    if horizon == 10:
        assert total == F(45, 4) and starts == {"p": 0, "b": 0, "a": 4, "c": 10}


# Two diamonds in a row, 8 stages: all 9 edges can still rise, against at
# most 5 on the generated suites and the benchmark's DAG pool. The
# exhaustive oracle proves this total in under 100 nodes: it shifts at the
# cut s3 between the diamonds and prices each diamond's two paths as pairs
# (``tests/golden/reconvergent/diamond_chain/verify.txt``).
DIAMOND_CHAIN = reconvergent("diamond_chain")


def test_diamond_chain_stays_far_below_the_set_cap(monkeypatch):
    g = parse_pipeline(DIAMOND_CHAIN)
    system = build_constraints(g)
    assert all(m.max_floor_offset is not None for m in system.edges)
    solved = []
    least_optimal = solver.least_optimal

    def counting(lower, upper, arcs):
        solved.append(arcs)
        return least_optimal(lower, upper, arcs)

    monkeypatch.setattr(solver, "least_optimal", counting)
    sol = solve(system)
    assert sol.total_buffer == F(1363, 6)
    assert sol.start_cycles == {"s0": 0, "s1": 1, "s2": 16, "s3": 17, "s4": 75,
                                "s5": 18, "s6": 89, "s7": 90}
    sets = len(solved)
    assert 64 * sets < optimizer.MAX_SATURATED_SETS
    # The cap counts exactly the sets solved.
    monkeypatch.setattr(optimizer, "MAX_SATURATED_SETS", sets)
    assert solve(system).dumps() == sol.dumps()
    monkeypatch.setattr(optimizer, "MAX_SATURATED_SETS", sets - 1)
    with pytest.raises(optimizer.SearchLimitError):
        solve(system)


def four_diamond_chain():
    """``DIAMOND_CHAIN`` grown to four diamonds, on s0-s3, s3-s6, s6-s9 and
    s9-s12, with s7-s12 copying s1-s6: 13 stages, 16 edges."""
    doc = json.loads(DIAMOND_CHAIN)
    spec = {s["id"]: s for s in doc["stages"]}
    stages = [spec[f"s{i}"] for i in range(7)]
    stages += [dict(spec[f"s{i - 6}"], id=f"s{i}") for i in range(7, 13)]
    edges = [[f"s{3 * j}", f"s{3 * j + k}"] for j in range(4) for k in (1, 2)]
    edges += [[f"s{3 * j + k}", f"s{3 * j + 3}"] for j in range(4) for k in (1, 2)]
    return parse_pipeline(json.dumps({"input_work": 288, "stages": stages, "edges": edges}))


def test_four_diamond_chain_fits_the_set_cap(monkeypatch):
    # Pins the search's answer and its set count against regressions. The
    # exhaustive oracle proves the same total and start vector with one
    # candidate at the default horizon, shifting at the cuts between the
    # diamonds and pricing each diamond's two paths together.
    solved = []
    least_optimal = solver.least_optimal

    def counting(lower, upper, arcs):
        solved.append(arcs)
        return least_optimal(lower, upper, arcs)

    monkeypatch.setattr(solver, "least_optimal", counting)
    sol = optimize(four_diamond_chain())
    assert sol.total_buffer == F(47903, 6)
    assert sol.start_cycles == {
        "s0": 0, "s1": 1, "s2": 192, "s3": 193, "s4": 867, "s5": 194, "s6": 1035,
        "s7": 1037, "s8": 2016, "s9": 2017, "s10": 3391, "s11": 2018, "s12": 3734}
    assert len(solved) == 9905
    assert 3 * len(solved) < optimizer.MAX_SATURATED_SETS
    g = four_diamond_chain()
    assert exhaustive_minimum(g, default_horizon(g)) == (sol.total_buffer, sol.start_cycles, 1)
