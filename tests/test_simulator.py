import copy
from fractions import Fraction as F
from math import ceil, floor
from typing import NamedTuple

import pytest

from _pipegen import suite
from _reference import ref_models, tau_in, tau_out
from conftest import GLOBAL_EDGE, KNN_STENCIL, LOCAL_CHAIN
from pointpipe.graph import parse_pipeline
from pointpipe.optimizer import (
    _frac_to_json,
    edge_key,
    edge_models,
    optimize,
    schedule_chunks,
)
from pointpipe.simulator import _live, _peak, edge_ticks, simulate


def occupancy_at(trace, key, t):
    """The occupancy of edge ``key`` summed over the trace's chunks at
    ``t`` cycles, which must fall on one of the edge's ticks."""
    e = trace._ticks[key]
    tick = F(t) * e.ticks
    assert tick.denominator == 1, (key, t)
    return F(_live(e, len(trace.chunk_completions), tick.numerator), e.unit)


def _clamp(x, lo, hi):
    return max(lo, min(hi, x))


# The Fraction reference that the simulator's integer record replaced: one
# edge's curve ends in cycles, built here from the fields of the Fraction
# reference model (``_reference.RefEdge``), every occupancy kink (the
# roots of writes minus raw frees included), the curves at a point, the
# stall margin at the four ramp ends, the occupancy summed over the live
# chunks, and the peak scan over the kept kinks moved by the shifts 0 to
# m.

class Curves(NamedTuple):
    """One edge's curve ends under one chunk's schedule, in cycles and
    tokens."""

    volume: F
    out_rate: F
    in_rate: F
    write_start: F
    write_end: F
    demand_start: F
    overwrite_start: F
    drain_end: F
    consumer_start: F
    is_global: bool


def curves_of(model, starts, overwrite=None):
    """The curves of ``model``, a ``RefEdge``, under ``starts``;
    ``overwrite`` is the absolute overwrite start, by default the
    consumer's start plus its depth, and plus its duration on a Global
    edge."""
    m = model
    s_p, s_c = F(starts[m.edge.producer]), F(starts[m.edge.consumer])
    if overwrite is None:
        overwrite = s_c + m.depth_c + (m.dur_c if m.is_global else 0)
    return Curves(
        volume=m.volume, out_rate=m.out_rate, in_rate=m.in_rate,
        write_start=s_p + m.depth_p, write_end=s_p + m.depth_p + m.dur_p,
        demand_start=s_c + m.depth_c, overwrite_start=overwrite,
        drain_end=overwrite + m.volume / m.in_rate, consumer_start=s_c,
        is_global=m.is_global,
    )


def writes(c, t):
    return _clamp(c.out_rate * (t - c.write_start), F(0), c.volume)


def readable(c, t):
    # One-cycle write-to-read latency.
    return _clamp(c.out_rate * (t - 1 - c.write_start), F(0), c.volume)


def demand(c, t):
    return _clamp(c.in_rate * (t - c.demand_start), F(0), c.volume)


def frees(c, t):
    return min(writes(c, t), _clamp(c.in_rate * (t - c.overwrite_start), F(0), c.volume))


def occupancy(c, t):
    w = writes(c, t)
    return w - min(w, _clamp(c.in_rate * (t - c.overwrite_start), F(0), c.volume))


def occupancy_kinks(c):
    pts = sorted({c.write_start, c.write_end, c.overwrite_start, c.drain_end})
    # The write clamp on frees can add sign-change roots of
    # writes - raw_frees between known kinks.
    roots = []
    for a, b in zip(pts, pts[1:]):
        fa = writes(c, a) - c.in_rate * (a - c.overwrite_start)
        fb = writes(c, b) - c.in_rate * (b - c.overwrite_start)
        if (fa < 0 < fb) or (fb < 0 < fa):
            roots.append(a + (b - a) * fa / (fa - fb))
    return sorted(set(pts + roots))


def edge_stall_margin(c):
    """(worst margin, time of worst margin); negative margin means a stall."""
    if c.is_global:
        # Everything must be written before the consumer activates.
        return writes(c, c.consumer_start) - c.volume, c.consumer_start
    worst, worst_t = None, c.demand_start
    for t in sorted({c.write_start + 1, c.write_end + 1, c.demand_start,
                     c.demand_start + c.volume / c.in_rate}):
        m = readable(c, t) - demand(c, t)
        if worst is None or m < worst:
            worst, worst_t = m, t
    return worst, worst_t


def live_occupancy(c, chunks, interval, t):
    """Occupancy at ``t`` summed over the chunks live at ``t``, chunk k
    being ``c`` shifted by k intervals."""
    lo, hi = 0, chunks
    if interval > 0:
        lo = max(lo, ceil((t - c.drain_end) / interval))
        hi = min(hi, floor((t - c.write_start) / interval) + 1)
    return sum((occupancy(c, t - k * interval) for k in range(lo, hi)), F(0))


def reference_scan(c, kinks, chunks, interval):
    """(peak, earliest time of the peak, and the summed occupancy at every
    point of ``kinks``, chunk 0's occupancy kinks with the roots, moved by
    each scanned shift). The scan takes the kinks in [write_start,
    drain_end] moved by the shifts 0 to m, or by every shift at interval 0.

    The sums are ``live_occupancy``'s, regrouped: chunk k at x + j*interval
    reads chunk 0 at x + i*interval, i = j - k, which is zero unless
    write_start <= x + i*interval <= drain_end, and 1 - chunks <= i <
    shifts. So each kink's chunk-0 values are taken once, and each point
    sums a window of them by prefix sums: at interval 1 and 32 chunks a
    point sums up to 32 of them."""
    assert interval >= 0
    start, end = c.write_start, c.drain_end
    kept = [t for t in kinks if start <= t <= end]
    shifts = 1
    if interval > 0 and kept:
        shifts = min(chunks, floor((end - start) / interval) + 1)
    values = {}
    scanned = []
    # Chunk 0's occupancy by time: kinks whole intervals apart share it.
    memo = {}
    for x in kinks:
        if interval == 0:
            points = [x]
            values[x] = chunks * occupancy(c, x)
        else:
            lo = max(1 - chunks, ceil((start - x) / interval))
            hi = min(shifts - 1, floor((end - x) / interval))
            prefix = [F(0)]
            t = x + lo * interval
            for _ in range(lo, hi + 1):
                if t not in memo:
                    memo[t] = occupancy(c, t)
                prefix.append(prefix[-1] + memo[t])
                t += interval
            points = [x + j * interval for j in range(shifts)]
            for j, t in enumerate(points):
                first, last = max(lo, j - chunks + 1), min(hi, j)
                values[t] = (prefix[last - lo + 1] - prefix[first - lo]
                             if first <= last else F(0))
        if start <= x <= end:
            scanned += points
    peak = peak_t = F(0)
    for t in sorted(set(scanned)):
        if values[t] > peak:
            peak, peak_t = values[t], t
    return peak, peak_t, values


def test_occupancy_matches_rate_formulas(knn_stencil, local_chain):
    # Independent recomputation of write/overwrite counts from the stage
    # declarations, compared against the trace at every integer cycle.
    for g in (knn_stencil, local_chain):
        sol = optimize(g)
        trace = simulate(g, sol)
        for e in g.edges:
            key = edge_key(e)
            p, c = g.stage(e.producer), g.stage(e.consumer)
            v = F(g.edge_volume[e])
            out_rate = tau_out(p)
            in_rate = tau_in(c)
            w_start = F(sol.start_cycles[e.producer] + p.stage_depth)
            t_o = sol.overwrite_starts[key]
            for t in range(trace.completion_cycle + 1):
                written = _clamp(out_rate * (t - w_start), F(0), v)
                overwritten = min(written, _clamp(in_rate * (t - t_o), F(0), v))
                assert occupancy_at(trace, key, t) == written - overwritten


def test_conservation(knn_stencil, local_chain, global_edge):
    # By its drain end each edge has written and freed its whole volume,
    # and the trace holds nothing from then on.
    for g in (knn_stencil, local_chain, global_edge):
        sol = optimize(g)
        trace = simulate(g, sol)
        for m in ref_models(g):
            c = curves_of(m, sol.start_cycles, sol.overwrite_starts[m.key])
            assert writes(c, c.drain_end) == frees(c, c.drain_end) == g.edge_volume[m.edge]
            assert occupancy_at(trace, m.key, c.drain_end) == 0


def test_simulate_rejects_a_chunk_count_its_schedule_cannot_run(knn_stencil):
    # No chunks at all, or several on a schedule with no interval.
    sol = optimize(knn_stencil)
    with pytest.raises(ValueError, match="chunk_count must be >= 1"):
        simulate(knn_stencil, sol, chunk_count=0)
    with pytest.raises(ValueError, match="multi-chunk simulation needs a chunked schedule"):
        simulate(knn_stencil, sol, chunk_count=4)


def test_optimized_schedules_run_clean():
    for g in suite(30):
        sol = optimize(g)
        trace = simulate(g, sol)
        assert trace.ok, (trace.stall_events, trace.overflow_events)
        assert trace.peaks == sol.buffer_sizes


def test_single_missing_element_overflows():
    for g in suite(12):
        sol = optimize(g)
        for key in sol.buffer_sizes:
            tampered = copy.deepcopy(sol)
            tampered.buffer_sizes[key] -= 1
            trace = simulate(g, tampered)
            assert any(o.edge == key for o in trace.overflow_events)


def test_early_consumer_stalls(identical_rates):
    sol = optimize(identical_rates)
    bad = copy.deepcopy(sol)
    bad.start_cycles["b"] -= 1  # consumer now reads data not yet written
    bad.overwrite_starts[edge_key(identical_rates.edges[0])] -= 1
    trace = simulate(identical_rates, bad)
    assert trace.stall_events
    assert trace.stall_events[0].stage == "b"


def test_early_global_consumer_stalls(global_edge):
    sol = optimize(global_edge)
    bad = copy.deepcopy(sol)
    bad.start_cycles["sorter"] -= 1
    trace = simulate(global_edge, bad)
    assert any(s.stage == "sorter" and "incomplete" in s.cause for s in trace.stall_events)


def test_first_output_lags_first_read_by_depth(image_stencil):
    sol = optimize(image_stencil)
    trace = simulate(image_stencil, sol)
    lag = trace.first_output["stencil"] - trace.first_read["stencil"]
    assert lag == image_stencil.stage("stencil").stage_depth == 2


def test_empty_edge_map_for_single_stage():
    g = parse_pipeline(
        """{"input_work": 5, "stages": [
            {"id": "only", "kind": "Elementwise", "i_shape": [1, 1], "o_shape": [1, 1], "stage": 0}
        ], "edges": []}"""
    )
    trace = simulate(g, optimize(g))
    assert trace.peaks == {}
    assert trace.ok


def test_trace_rows_are_samplable(knn_stencil):
    sol = optimize(knn_stencil)
    trace = simulate(knn_stencil, sol)
    rows = list(trace.sample_rows(stride=4))
    assert rows[0][0] == 0
    assert all(cycle % 4 == 0 for cycle, _, _ in rows)


def test_edge_model_closed_form_matches_curves_offset_by_offset():
    # The closed form (min_offset, peak) against the simulator's curves,
    # which read no closed form: stall margin and a scan of every kink.
    pairs = 0
    for g in suite(25, start_seed=5000):
        for m, r in zip(edge_models(g), ref_models(g)):
            last = ceil(r.min_offset + r.dur_p + r.drain) + 5
            for d in range(m.min_offset - 4, last + 1):
                curves = curves_of(r, {m.edge.producer: 0, m.edge.consumer: d})
                margin, _ = edge_stall_margin(curves)
                assert (margin >= 0) == (d >= m.min_offset), (m.key, d)
                if d >= m.min_offset:
                    scan = max(occupancy(curves, t) for t in occupancy_kinks(curves))
                    assert F(m.peak(d), m.unit) == scan, (m.key, d)
                pairs += 1
    assert pairs > 3000



def _variants(g, chunks):
    """Chunked schedules of ``g``: as optimized, with hand-set intervals
    (0; 1, so that many chunks overlap; and the three that leave the last
    edge m = 0, 1 and 2 intervals of reach, m being the simulator's
    floor((drain_end - write_start) / II)), with an overwrite start moved
    before the write start or so that draining ends before writing (either
    may also move it before the consumer retires data, a stall of the
    consumer in each chunk), and with a consumer started a cycle early,
    which stalls it at its least offset."""
    sol = schedule_chunks(optimize(g), g, chunks)
    yield sol
    m = ref_models(g)[-1]
    c = curves_of(m, sol.start_cycles, sol.overwrite_starts[m.key])
    span = c.drain_end - c.write_start
    for interval in (F(0), F(1), *(span / (reach + F(1, 2)) for reach in range(3))):
        v = copy.deepcopy(sol)
        v.initiation_interval = interval
        yield v
    write_start = sol.start_cycles[m.edge.producer] + m.depth_p
    for overwrite in (write_start - 3, write_start + m.dur_p - m.drain - F(5, 2)):
        v = copy.deepcopy(sol)
        v.overwrite_starts[m.key] = overwrite
        yield v
    v = copy.deepcopy(sol)
    v.start_cycles[m.edge.consumer] -= 1
    yield v


def _chunk_curves(m, sol, k):
    """Chunk k's own curves: every start and the overwrite start moved
    k initiation intervals later."""
    shift = k * sol.initiation_interval
    starts = {sid: start + shift for sid, start in sol.start_cycles.items()}
    return curves_of(m, starts, sol.overwrite_starts[m.key] + shift)


@pytest.mark.parametrize("chunks", [1, 2, 5, 7, 64])
def test_live_chunk_sums_equal_brute_force_over_every_chunk(chunks):
    # Keeping chunk 0's curves alone, summing only the live chunks and
    # scanning only the shifts 0 to m must change nothing: peaks, the cycle
    # of each overflow and stall, occupancy_at and sample_rows all equal
    # what every chunk's own curves give, and each chunk writes and frees
    # its whole volume. The variants give the last edge m = 0, 1
    # and 2, so the counts fall below 2m + 2 (1, 2, 5) and above it (5, 7,
    # 64). 64 chunks cost O(chunks^2) here, so one graph there.
    stalled = 0
    reaches = set()
    graphs = [parse_pipeline(KNN_STENCIL)]
    if chunks < 64:
        graphs += [parse_pipeline(LOCAL_CHAIN), parse_pipeline(GLOBAL_EDGE)]
        graphs += suite(3, start_seed=900)
    for g in graphs:
        models = ref_models(g)
        for sol in _variants(g, chunks):
            every = {m.key: [_chunk_curves(m, sol, k) for k in range(chunks)]
                     for m in models}

            def brute(key, t):
                return sum((occupancy(c, t) for c in every[key]), F(0))

            trace = simulate(g, sol, chunk_count=chunks)
            last = every[models[-1].key][0]
            if sol.initiation_interval > 0 and last.write_start <= last.drain_end:
                reaches.add(floor((last.drain_end - last.write_start) / sol.initiation_interval))
            want_stalls = sorted(
                [(ceil(when), m.edge.consumer)
                 for m in models for c in every[m.key]
                 for margin, when in [edge_stall_margin(c)] if margin < 0]
                + [(ceil(c.overwrite_start), m.edge.consumer)
                   for m in models for c in every[m.key]
                   if c.overwrite_start < c.consumer_start + m.overwrite_delay]
            )
            assert [(s.cycle, s.stage) for s in trace.stall_events] == want_stalls
            stalled += bool(want_stalls)
            tight = copy.deepcopy(sol)
            want_overflows = []
            for key, curves in every.items():
                # A moved overwrite start can end the draining before the
                # writing: then the chunk quiesces at its write end.
                quiesce = [max(c.drain_end, c.write_end) for c in curves]
                for c, done in zip(curves, quiesce):
                    assert writes(c, done) == frees(c, done) == c.volume
                assert occupancy_at(trace, key, max(quiesce)) == 0
                kinks = sorted({t for c in curves for t in occupancy_kinks(c)})
                occ = [brute(key, t) for t in kinks]
                assert [occupancy_at(trace, key, t) for t in kinks] == occ
                peak = max(occ)
                assert trace.peaks[key] == peak
                if peak > 0:
                    tight.buffer_sizes[key] = peak - F(1, 2)
                    want_overflows.append((ceil(kinks[occ.index(peak)]), key))
            over = simulate(g, tight, chunk_count=chunks).overflow_events
            assert [(o.cycle, o.edge) for o in over] == sorted(want_overflows)
            stride = max(1, trace.completion_cycle // 40)
            assert list(trace.sample_rows(stride=stride)) == [
                (cyc, key, _frac_to_json(brute(key, cyc)))
                for cyc in range(0, trace.completion_cycle + 1, stride)
                for key in trace.edge_order
            ]
    assert stalled
    assert {0, 1, 2} <= reaches


@pytest.mark.parametrize("chunks", [1, 5, 32])
def test_swept_rows_equal_pointwise_live_occupancy(chunks):
    # sample_rows sweeps each edge's linear pieces; occupancy_at sums the
    # live chunks at one cycle. The variants give interval 0 with every
    # chunk on top of the others, interval 1, so that many chunks overlap,
    # fractional intervals whose breakpoints fall between integer cycles,
    # and moved overwrite starts. At 32 chunks the pointwise side takes
    # seconds per random graph, so the hand-written graphs alone.
    graphs = [parse_pipeline(KNN_STENCIL), parse_pipeline(LOCAL_CHAIN),
              parse_pipeline(GLOBAL_EDGE)]
    if chunks < 32:
        graphs += suite(3, start_seed=900)
    fractional = 0
    for g in graphs:
        for sol in _variants(g, chunks):
            fractional += sol.initiation_interval.denominator > 1
            trace = simulate(g, sol, chunk_count=chunks)
            for stride in (1, 3):
                assert list(trace.sample_rows(stride=stride)) == [
                    (cyc, key, _frac_to_json(occupancy_at(trace, key, cyc)))
                    for cyc in range(0, trace.completion_cycle + 1, stride)
                    for key in trace.edge_order
                ], (sol.initiation_interval, stride)
    assert fractional


def test_integer_record_equals_the_fraction_reference():
    # The integer peak scan and the reference both scan every kept kink,
    # roots included, the reference in Fractions. Peaks, the earliest time
    # of each, stall events (early overwrite starts judged by the
    # reference's ``overwrite_delay``), and occupancy_at at every reference
    # kink, roots included, must agree on each variant schedule of two
    # random suites at 1, 2, 7 and 32 chunks. One chunk makes the hand-set
    # intervals moot, so those variants repeat there and are skipped.
    roots = regrouped = early = 0
    for g in suite(200, start_seed=5000) + suite(60, shape="tree"):
        models = list(zip(edge_models(g), ref_models(g)))
        reference = {}  # kinks and stall margin of each curves, shared by variants
        for chunks in (1, 2, 7, 32):
            seen = set()
            for sol in _variants(g, chunks):
                interval = sol.initiation_interval
                schedule = (tuple(sol.start_cycles.items()), tuple(sol.overwrite_starts.items()),
                            interval if chunks > 1 else None)
                if schedule in seen:
                    continue
                seen.add(schedule)
                trace = simulate(g, sol, chunk_count=chunks)
                want_stalls = []
                for m, r in models:
                    c = curves_of(r, sol.start_cycles, sol.overwrite_starts[m.key])
                    if c not in reference:
                        reference[c] = occupancy_kinks(c), edge_stall_margin(c)
                    kinks, (margin, when) = reference[c]
                    peak, peak_t, values = reference_scan(c, kinks, chunks, interval)
                    e = edge_ticks(m, sol.start_cycles, sol.overwrite_starts[m.key], interval)
                    assert [F(t, e.ticks) for t in (
                        e.write_start, e.write_end, e.overwrite_start, e.drain_end,
                        e.demand_start, e.consumer_start, e.interval)] == [
                        c.write_start, c.write_end, c.overwrite_start, c.drain_end,
                        c.demand_start, c.consumer_start, interval], (m.key, chunks)
                    got, got_t = _peak(e, chunks)
                    assert (F(got, e.unit), F(got_t, e.ticks)) == (peak, peak_t), (m.key, chunks)
                    assert trace.peaks[m.key] == peak
                    if margin < 0:
                        want_stalls += [(ceil(when + k * interval), m.edge.consumer)
                                        for k in range(chunks)]
                    if c.overwrite_start < c.consumer_start + r.overwrite_delay:
                        early += 1
                        want_stalls += [(ceil(c.overwrite_start + k * interval),
                                         m.edge.consumer) for k in range(chunks)]
                    roots += len(kinks) - len(
                        {c.write_start, c.write_end, c.overwrite_start, c.drain_end})
                    for t, want in values.items():
                        assert occupancy_at(trace, m.key, t) == want, (m.key, chunks, t)
                    if chunks == 7 and regrouped < 500:
                        # The regrouped sums are live_occupancy's.
                        for t, want in values.items():
                            assert live_occupancy(c, chunks, interval, t) == want
                            regrouped += 1
                assert [(s.cycle, s.stage) for s in trace.stall_events] == sorted(want_stalls)
    assert roots and regrouped >= 500 and early
