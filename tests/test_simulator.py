import copy
from fractions import Fraction as F
from math import ceil

from _pipegen import suite
from pointpipe.graph import parse_pipeline
from pointpipe.optimizer import build_constraints, edge_key, edge_models, solve
from pointpipe.simulator import edge_curves, edge_stall_margin, simulate


def _clamp(x, lo, hi):
    return max(lo, min(hi, x))


def test_occupancy_matches_rate_formulas(knn_stencil, local_chain):
    # Independent recomputation of write/overwrite counts from the stage
    # declarations, compared against the trace at every integer cycle.
    for g in (knn_stencil, local_chain):
        sol = solve(build_constraints(g))
        trace = simulate(g, sol)
        for e in g.edges:
            key = edge_key(e)
            p, c = g.stage(e.producer), g.stage(e.consumer)
            v = F(g.edge_volume[e])
            out_rate = p.throughputs().tau_out
            in_rate = c.throughputs().tau_in
            w_start = F(sol.start_cycles[e.producer] + p.stage_depth)
            t_o = sol.overwrite_starts[key]
            for t in range(trace.completion_cycle + 1):
                written = _clamp(out_rate * (t - w_start), F(0), v)
                overwritten = min(written, _clamp(in_rate * (t - t_o), F(0), v))
                assert trace.occupancy_at(key, t) == written - overwritten


def test_conservation(knn_stencil, local_chain, global_edge):
    for g in (knn_stencil, local_chain, global_edge):
        sol = solve(build_constraints(g))
        trace = simulate(g, sol)
        for e in g.edges:
            key = edge_key(e)
            assert trace.written_total[key] == g.edge_volume[e]
            assert trace.freed_total[key] == g.edge_volume[e]


def test_optimized_schedules_run_clean():
    for g in suite(30):
        sol = solve(build_constraints(g))
        trace = simulate(g, sol)
        assert trace.ok, (trace.stall_events, trace.overflow_events)
        assert trace.peaks == sol.buffer_sizes


def test_single_missing_element_overflows():
    for g in suite(12):
        sol = solve(build_constraints(g))
        for key in sol.buffer_sizes:
            tampered = copy.deepcopy(sol)
            tampered.buffer_sizes[key] -= 1
            trace = simulate(g, tampered)
            assert any(o.edge == key for o in trace.overflow_events)


def test_early_consumer_stalls(identical_rates):
    sol = solve(build_constraints(identical_rates))
    bad = copy.deepcopy(sol)
    bad.start_cycles["b"] -= 1  # consumer now reads data not yet written
    bad.overwrite_starts[edge_key(identical_rates.edges[0])] -= 1
    trace = simulate(identical_rates, bad)
    assert trace.stall_events
    assert trace.stall_events[0].stage == "b"


def test_early_global_consumer_stalls(global_edge):
    sol = solve(build_constraints(global_edge))
    bad = copy.deepcopy(sol)
    bad.start_cycles["sorter"] -= 1
    trace = simulate(global_edge, bad)
    assert any(s.stage == "sorter" and "incomplete" in s.cause for s in trace.stall_events)


def test_first_output_lags_first_read_by_depth(image_stencil):
    sol = solve(build_constraints(image_stencil))
    trace = simulate(image_stencil, sol)
    lag = trace.first_output["stencil"] - trace.first_read["stencil"]
    assert lag == image_stencil.stage("stencil").stage_depth == 2


def test_empty_edge_map_for_single_stage():
    g = parse_pipeline(
        """{"input_work": 5, "stages": [
            {"id": "only", "kind": "Elementwise", "i_shape": [1, 1], "o_shape": [1, 1], "stage": 0}
        ], "edges": []}"""
    )
    trace = simulate(g, solve(build_constraints(g)))
    assert trace.peaks == {}
    assert trace.ok


def test_trace_rows_are_samplable(knn_stencil):
    sol = solve(build_constraints(knn_stencil))
    trace = simulate(knn_stencil, sol)
    rows = list(trace.sample_rows(stride=4))
    assert rows[0][0] == 0
    assert all(cycle % 4 == 0 for cycle, _, _ in rows)


def test_edge_model_closed_form_matches_curves_offset_by_offset():
    # The closed form (min_offset, peak) against the simulator's curves,
    # which read no closed form: stall margin and a scan of every kink.
    pairs = 0
    for g in suite(25, start_seed=5000):
        for m in edge_models(g):
            last = ceil(m.min_offset + m.dur_p + m.drain) + 5
            for d in range(m.min_offset - 4, last + 1):
                curves = edge_curves(m, {m.edge.producer: 0, m.edge.consumer: d})
                margin, _ = edge_stall_margin(curves)
                assert (margin >= 0) == (d >= m.min_offset), (m.key, d)
                if d >= m.min_offset:
                    scan = max(curves.occupancy(t) for t in curves.occupancy_kinks())
                    assert m.peak(d) == scan, (m.key, d)
                pairs += 1
    assert pairs > 3000
