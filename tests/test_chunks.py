from fractions import Fraction as F

import pytest

from _pipegen import suite
from pointpipe.graph import parse_pipeline
from pointpipe.optimizer import build_constraints, schedule_chunks, solve
from pointpipe.simulator import simulate


def test_single_chunk_is_identity(knn_stencil):
    sol = solve(build_constraints(knn_stencil))
    chunked = schedule_chunks(sol, knn_stencil, 1)
    assert chunked.start_cycles == sol.start_cycles
    assert chunked.buffer_sizes == sol.buffer_sizes
    assert chunked.makespan == sol.makespan
    assert chunked.initiation_interval is not None


def test_interval_is_longest_duration_on_local_chain(local_chain):
    sol = solve(build_constraints(local_chain))
    chunked = schedule_chunks(sol, local_chain, 4)
    assert chunked.initiation_interval == F(max(local_chain.duration.values()), local_chain.ticks)


def test_short_stages_get_bubbles_longest_gets_none():
    # Unequal-length local stages: every stage shorter than the interval
    # idles at the top of each chunk; the longest stage never does.
    doc = """{"input_work": 12, "stages": [
        {"id": "fast", "kind": "Elementwise", "i_shape": [2, 1], "o_shape": [2, 1], "stage": 0},
        {"id": "slow", "kind": "Elementwise", "i_shape": [1, 1], "o_shape": [1, 1], "stage": 0},
        {"id": "tail", "kind": "Reduction", "i_shape": [2, 1], "o_shape": [1, 1], "o_freq": 2, "stage": 0}
    ], "edges": [["fast", "slow"], ["slow", "tail"]]}"""
    g = parse_pipeline(doc)
    sol = solve(build_constraints(g))
    chunked = schedule_chunks(sol, g, 4)
    durations = g.duration
    longest = max(durations, key=lambda sid: durations[sid])
    assert chunked.bubbles[longest] == 0
    for sid in durations:
        if durations[sid] < durations[longest]:
            assert chunked.bubbles[sid] > 0


def test_multi_chunk_peaks_interval_makespan(knn_stencil, local_chain, global_edge):
    for g in (knn_stencil, local_chain, global_edge):
        sol = solve(build_constraints(g))
        base = simulate(g, sol)
        for c in (2, 4, 8, 16):
            chunked = schedule_chunks(sol, g, c)
            trace = simulate(g, chunked, chunk_count=c)
            assert trace.ok
            assert trace.peaks == base.peaks
            assert chunked.makespan == sol.makespan + (c - 1) * chunked.initiation_interval
            gaps = {
                trace.chunk_completions[i + 1] - trace.chunk_completions[i]
                for i in range(c - 1)
            }
            assert gaps == {chunked.initiation_interval}


def test_multi_chunk_safety_random_sample():
    for g in suite(10, start_seed=777):
        sol = solve(build_constraints(g))
        for c in (2, 8, 16):
            chunked = schedule_chunks(sol, g, c)
            trace = simulate(g, chunked, chunk_count=c)
            assert trace.ok
            assert trace.peaks == sol.buffer_sizes


def test_chunk_count_validated(knn_stencil):
    sol = solve(build_constraints(knn_stencil))
    with pytest.raises(ValueError):
        schedule_chunks(sol, knn_stencil, 0)
