import copy
import importlib.util
import json
import sys
from fractions import Fraction
from math import ceil
from pathlib import Path

import pytest

from pointpipe.graph import (
    ParseError,
    Shape,
    StageKind,
    StageSpec,
    ValidationError,
    load_pipeline,
    parse_pipeline,
)
from pointpipe.optimizer import edge_models

from _pipegen import suite
from _reference import derive, ref_models, tau_in, tau_out
from conftest import GOLDEN, KNN_STENCIL, reconvergent

ROOT = Path(__file__).parent.parent


def per_cycle(g, rate):
    """A rate in units per tick as elements per cycle."""
    return Fraction(rate * g.ticks, g.unit)


def test_knn_stencil_throughputs(knn_stencil):
    g = knn_stencil
    assert per_cycle(g, g.out_rate["knn"]) == Fraction(12, 8) == Fraction(3, 2)
    assert per_cycle(g, g.in_rate["knn"]) == 3
    assert per_cycle(g, g.in_rate["stencil"]) == Fraction(3, 2)
    assert per_cycle(g, g.out_rate["stencil"]) == 1


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
    assert per_cycle(g, g.in_rate["a"]) == 1 and per_cycle(g, g.out_rate["a"]) == 1


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
    # Ticks times units per tick: the input volume at the read rate, the
    # work at the write rate, in units, and the reference's cycles.
    for g in (knn_stencil, image_stencil, local_chain):
        for s in g.stages:
            d = g.duration[s.id]
            assert d * g.in_rate[s.id] == g.input_volume[s.id] * g.unit
            assert d * g.out_rate[s.id] == g.work[s.id] * g.unit
            assert Fraction(d, g.ticks) == Fraction(g.input_volume[s.id]) / tau_in(s)


def test_rationals_never_floats(knn_stencil):
    g = knn_stencil
    derived = [g.ticks, g.unit, *g.work.values(), *g.duration.values(),
               *g.in_rate.values(), *g.out_rate.values()]
    assert all(type(x) is int for x in derived)


def _reference_graphs():
    """The suites, the benchmark's two pools, the shipped pipelines and the
    four reconvergent graphs."""
    graphs = (suite(600, start_seed=20000) + suite(200, start_seed=5000)
              + suite(100, shape="tree"))
    path = ROOT / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for pool in ("sched_tree", "sched_dag"):
        graphs += [parse_pipeline(json.dumps(doc))
                   for _, doc in workloads.pipeline_pool(1, pool)]
    graphs += [load_pipeline(str(path)) for path in sorted((ROOT / "pipelines").glob("*.json"))]
    graphs += [parse_pipeline(reconvergent(name)) for name in
               ("diamond", "diamond5_1", "diamond_chain", "diamond7_tiebreak")]
    return graphs


TIMES = ("depth_p", "depth_c", "dur_p", "dur_c", "drain", "write_end", "overwrite_delay")


def test_integer_model_equals_the_fraction_reference():
    # Every int the graph derives and every field of each EdgeModel, over
    # its unit, equals the Fraction formula it replaced: durations and
    # times over ticks, amounts over unit, rates (units per tick) over
    # unit / ticks, and a branch's slope per cycle over unit.
    graphs = _reference_graphs()
    bits = set()
    for g in graphs:
        one, unit = g.ticks, g.unit
        bits.add((one.bit_length(), unit.bit_length()))
        volume, work, duration = derive(g)
        assert (g.input_volume, g.work) == (volume, work)
        for s in g.stages:
            assert Fraction(g.duration[s.id], one) == duration[s.id]
            assert (per_cycle(g, g.in_rate[s.id]), per_cycle(g, g.out_rate[s.id])) == (
                tau_in(s), tau_out(s))
        for m, r in zip(edge_models(g), ref_models(g), strict=True):
            assert (m.edge, m.key, m.is_global, m.ticks, m.unit) == (
                r.edge, r.key, r.is_global, one, unit)
            assert Fraction(m.volume, unit) == r.volume
            assert (per_cycle(g, m.out_rate), per_cycle(g, m.in_rate)) == (r.out_rate, r.in_rate)
            for name in TIMES:
                assert Fraction(getattr(m, name), one) == getattr(r, name), (m.key, name)
            assert (m.min_offset, m.max_floor_offset) == (
                r.min_offset, r.max_floor_offset), m.key
            assert [(Fraction(s, unit), Fraction(a, unit)) for s, a in m.branches] == list(
                r.branches), m.key
            (kinks, slopes), (ref_kinks, ref_slopes) = m.pieces, r.pieces
            assert kinks == ref_kinks and [Fraction(x, unit) for x in slopes] == list(ref_slopes)
            # g is linear between its kinks: offsets around min_offset and
            # each kink, and one far past them.
            far = r.min_offset + ceil(r.dur_p + r.drain) + 2
            for d in {*range(r.min_offset - 2, r.min_offset + 3), far,
                      *(k + j for k in ref_kinks for j in (-1, 0, 1))}:
                assert Fraction(m.g(d), unit) == r.g(d), (m.key, d)
                assert Fraction(m.peak(d), unit) == r.peak(d), (m.key, d)
    # 900 suite graphs, 7 checked-in ones, and the pools (32 at this writing).
    assert len(graphs) > 907
    # The bound on the units that the PipelineGraph docstring states.
    assert max(t for t, _ in bits) <= 13 and max(u for _, u in bits) <= 16


# -- single-fault documents ----------------------------------------------------

FAULT_VALUES = (None, True, 0, -1, 1.5, "", "x", [], [1], [1, 2, 3], [True, 1], {})


def _nodes(node, path=()):
    """The path of every value under ``node``, depth first, root excluded."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from _nodes(child, path + (key,))


def _faults(doc):
    """(label, document) for each single fault of the pipeline ``doc``: a
    key or item deleted, a value replaced by each of ``FAULT_VALUES``, an
    unknown key added to an object, an edge made bad, dangling, self-looped,
    reversed or duplicated, a stage duplicated, a stage given another
    kind."""

    def edited(path, change):
        new = copy.deepcopy(doc)
        parent = new
        for key in path[:-1]:
            parent = parent[key]
        change(parent, path[-1])
        return json.dumps(new)

    def put(value):
        def change(parent, key):
            parent[key] = value
        return change

    def delete(parent, key):
        del parent[key]

    def append(value):
        def change(parent, key):
            parent[key].append(value)
        return change

    for path in _nodes(doc):
        where = "/".join(map(str, path))
        yield f"delete {where}", edited(path, delete)
        for value in FAULT_VALUES:
            yield f"{where} = {json.dumps(value)}", edited(path, put(copy.deepcopy(value)))
    for path in [(), *_nodes(doc)]:
        node = doc
        for key in path:
            node = node[key]
        if isinstance(node, dict):
            where = "/".join(map(str, path))
            yield f"extra key in /{where}", edited((*path, "extra"), put(1))
    for i, (p, c) in enumerate(doc["edges"]):
        for fault, edge in (("bad", f"{p}->{c}"), ("dangling", [p, "ghost"]),
                            ("self-looped", [p, p]), ("reversed", [c, p])):
            yield f"edges/{i} {fault}", edited(("edges", i), put(edge))
        yield f"edges/{i} duplicated", edited(("edges",), append([p, c]))
    for i, stage in enumerate(doc["stages"]):
        yield f"stages/{i} duplicated", edited(("stages",), append(copy.deepcopy(stage)))
        for kind in StageKind:
            if kind.value != stage["kind"]:
                yield f"stages/{i}/kind = {kind.value}", edited(
                    ("stages", i, "kind"), put(kind.value))


def _fault_records() -> list[str]:
    """One line per single-fault document of every shipped and reconvergent
    pipeline: its label and what ``parse_pipeline`` makes of it, an
    exception's class and message or "ok"."""
    sources = sorted((ROOT / "pipelines").glob("*.json")) + sorted(
        (GOLDEN / "reconvergent").glob("*/pipeline.json"))
    lines = []
    for source in sources:
        name = source.relative_to(ROOT).as_posix()
        for label, document in _faults(json.loads(source.read_text())):
            try:
                parse_pipeline(document)
                outcome = ["ok", ""]
            except Exception as exc:
                outcome = [type(exc).__name__, str(exc)]
            lines.append(json.dumps([f"{name}: {label}", *outcome]) + "\n")
    return lines


def test_single_fault_documents_keep_their_errors():
    # Each field of a pipeline document is checked once, in the parser; this
    # pins the class and message every check gives, byte for byte, over
    # every single fault of the seven checked-in pipelines.
    # tests/golden/parse_faults.jsonl holds one json.dumps([label, class,
    # message]) a line.
    golden = (GOLDEN / "parse_faults.jsonl").read_text().splitlines(keepends=True)
    assert _fault_records() == golden
