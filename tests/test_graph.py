from fractions import Fraction

import pytest

from pointpipe.graph import (
    ParseError,
    Shape,
    StageKind,
    StageSpec,
    ValidationError,
    parse_pipeline,
)

from conftest import KNN_STENCIL


def test_knn_stencil_throughputs(knn_stencil):
    knn = knn_stencil.stage("knn")
    stencil = knn_stencil.stage("stencil")
    assert knn.tau_out == Fraction(12, 8) == Fraction(3, 2)
    assert knn.tau_in == 3
    assert stencil.tau_in == Fraction(3, 2)
    assert stencil.tau_out == 1


def test_defaults_applied():
    g = parse_pipeline(
        """{"input_work": 4, "stages": [
            {"id": "a", "kind": "Elementwise", "i_shape": [1, 1], "o_shape": [1, 1], "stage": 0}
        ], "edges": []}"""
    )
    s = g.stage("a")
    assert s.i_freq == 1 and s.o_freq == 1 and s.reuse == (1, 1)


def test_identity_stage_rates():
    g = parse_pipeline(
        """{"input_work": 4, "stages": [
            {"id": "a", "kind": "Elementwise", "i_shape": [1, 1], "o_shape": [1, 1], "stage": 0}
        ], "edges": []}"""
    )
    s = g.stage("a")
    assert s.tau_in == 1 and s.tau_out == 1


def test_dangling_edge_rejected():
    doc = """{"input_work": 4, "stages": [
        {"id": "a", "kind": "Elementwise", "i_shape": [1, 1], "o_shape": [1, 1], "stage": 0}
    ], "edges": [["a", "ghost"]]}"""
    with pytest.raises(ValidationError, match="ghost"):
        parse_pipeline(doc)


def test_syntax_error_carries_position():
    with pytest.raises(ParseError, match=r"line \d+, column \d+"):
        parse_pipeline('{"input_work": 4,,}')


def test_unknown_kind_rejected():
    doc = """{"input_work": 4, "stages": [
        {"id": "a", "kind": "Sideways", "i_shape": [1, 1], "o_shape": [1, 1], "stage": 0}
    ], "edges": []}"""
    with pytest.raises(ParseError, match="Sideways"):
        parse_pipeline(doc)


def test_unknown_keys_rejected():
    with pytest.raises(ParseError, match="unknown top-level"):
        parse_pipeline('{"input_work": 4, "stages": [], "edges": [], "zap": 1}')
    doc = """{"input_work": 4, "stages": [
        {"id": "a", "kind": "Elementwise", "i_shape": [1, 1], "o_shape": [1, 1], "stage": 0, "zap": 1}
    ], "edges": []}"""
    with pytest.raises(ParseError, match="zap"):
        parse_pipeline(doc)


def test_cycle_rejected():
    doc = """{"input_work": 4, "stages": [
        {"id": "a", "kind": "Elementwise", "i_shape": [1, 1], "o_shape": [1, 1], "stage": 0},
        {"id": "b", "kind": "Elementwise", "i_shape": [1, 1], "o_shape": [1, 1], "stage": 0}
    ], "edges": [["a", "b"], ["b", "a"]]}"""
    with pytest.raises(ValidationError, match="cycle"):
        parse_pipeline(doc)


def test_non_integer_work_rejected():
    # 2:1 reduction (a 2-element burst read and a 1-element burst written
    # every 2 cycles) over odd input volume cannot produce whole elements.
    doc = """{"input_work": 7, "stages": [
        {"id": "r", "kind": "Reduction", "i_shape": [2, 1], "o_shape": [1, 1], "i_freq": 2, "o_freq": 2, "stage": 0}
    ], "edges": []}"""
    with pytest.raises(ValidationError, match="not an integer"):
        parse_pipeline(doc)


def test_reuse_restricted_to_stencils():
    with pytest.raises(ValidationError, match="reuse"):
        StageSpec(
            id="r",
            kind=StageKind.REDUCTION,
            i_shape=Shape(2, 1),
            o_shape=Shape(1, 1),
            reuse=(2, 1),
        )


def test_reduction_work_counts_by_brute_force():
    # 64 elements reduced 4-to-1, counted by explicit grouping: one 4-element
    # group read and one element written every 4 cycles.
    doc = """{"input_work": 64, "stages": [
        {"id": "r", "kind": "Reduction", "i_shape": [4, 1], "o_shape": [1, 1], "i_freq": 4, "o_freq": 4, "stage": 0}
    ], "edges": []}"""
    g = parse_pipeline(doc)
    elements = list(range(64))
    groups = [elements[i : i + 4] for i in range(0, 64, 4)]
    assert all(len(grp) == 4 for grp in groups)
    assert g.work["r"] == len(groups) == 16


def test_unequal_read_write_periods_counted_by_cycle_walk():
    # A 4-element burst read every cycle, one element written every 4th
    # cycle: walk the cycles until all 64 inputs are read and count writes.
    doc = """{"input_work": 64, "stages": [
        {"id": "r", "kind": "Reduction", "i_shape": [4, 1], "o_shape": [1, 1], "o_freq": 4, "stage": 0}
    ], "edges": []}"""
    g = parse_pipeline(doc)
    read = written = cycle = 0
    while read < 64:
        cycle += 1
        read += 4
        if cycle % 4 == 0:
            written += 1
    assert cycle == g.duration["r"] == 16
    assert g.work["r"] == written == 4


def test_stencil_work_counts_by_firing_enumeration(image_stencil):
    # Rate model: one window read per cycle, each unique element reused three
    # times, so 15 unique inputs sustain 45 gross reads = 15 firings of one
    # output element each.
    stencil = image_stencil.stage("stencil")
    unique_inputs = image_stencil.input_volume["stencil"]
    gross_reads = unique_inputs * stencil.reuse_total
    firings = gross_reads // stencil.i_shape.elements
    outputs = firings * stencil.o_shape.elements
    assert image_stencil.work["stencil"] == outputs == 15


def test_elementwise_work_passthrough():
    doc = """{"input_work": 37, "stages": [
        {"id": "e", "kind": "Elementwise", "i_shape": [1, 1], "o_shape": [1, 1], "stage": 0}
    ], "edges": []}"""
    assert parse_pipeline(doc).work["e"] == 37


def test_multi_producer_volumes_sum():
    doc = """{"input_work": 8, "stages": [
        {"id": "a", "kind": "Elementwise", "i_shape": [1, 1], "o_shape": [1, 1], "stage": 0},
        {"id": "b", "kind": "Elementwise", "i_shape": [1, 1], "o_shape": [1, 1], "stage": 0},
        {"id": "c", "kind": "Elementwise", "i_shape": [1, 1], "o_shape": [1, 1], "stage": 0}
    ], "edges": [["a", "b"], ["a", "c"], ["b", "c"]]}"""
    g = parse_pipeline(doc)
    assert g.input_volume["c"] == g.work["a"] + g.work["b"] == 16


def test_duration_identity_exact(knn_stencil, image_stencil, local_chain):
    for g in (knn_stencil, image_stencil, local_chain):
        for s in g.stages:
            d = g.duration[s.id]
            assert d == Fraction(g.input_volume[s.id]) / s.tau_in
            assert d == Fraction(g.work[s.id]) / s.tau_out


def test_rationals_never_floats(knn_stencil):
    for s in knn_stencil.stages:
        assert isinstance(s.tau_in, Fraction) and isinstance(s.tau_out, Fraction)
    assert all(isinstance(d, Fraction) for d in knn_stencil.duration.values())
    assert all(isinstance(w, int) for w in knn_stencil.work.values())
