import random
from fractions import Fraction
from math import ceil
from pathlib import Path

import pytest

from _pipegen import diamond_chain, drawn, suite
from _reference import ref_models
from conftest import GOLDEN, reconvergent
from pointpipe import oracle
from pointpipe.cli import INCONCLUSIVE, USAGE, VERIFY_FAILED, main
from pointpipe.graph import parse_pipeline
from pointpipe.optimizer import ScheduleError, build_constraints, edge_models, solve
from pointpipe.oracle import exhaustive_minimum, verify_against_oracle
from pointpipe.simulator import edge_ticks
from test_simulator import curves_of, edge_stall_margin, occupancy, occupancy_kinks

KNN_STENCIL = str(Path(__file__).parent.parent / "pipelines" / "knn_stencil.json")


def test_two_stage_local_matches(identical_rates):
    report = verify_against_oracle(identical_rates)
    assert report.matches
    assert report.oracle_total == report.solver_total == 1


def test_knn_stencil_matches_within_small_horizon(knn_stencil):
    report = verify_against_oracle(knn_stencil, horizon=128)
    assert report.matches
    assert report.solver_total == report.oracle_total


def test_infeasible_horizon_agrees(global_edge):
    # The sorter cannot start before cycle 8; a 3-cycle horizon fits nothing.
    report = verify_against_oracle(global_edge, horizon=3)
    assert report.matches  # both report infeasible
    assert report.solver_total is None and report.oracle_total is None
    assert str(report) == "both infeasible within horizon 3: match"


def test_random_sample_matches():
    for g in suite(20, start_seed=400):
        report = verify_against_oracle(g)
        assert report.matches, str(report)
        # The oracle's walk keeps the first optimum it meets, the least
        # start vector in topological order, which on these graphs is the
        # declaration order the solver's tie-break ranks by.
        assert report.solver_starts == report.oracle_starts, str(report)


def _infeasible(*args, **kwargs):
    raise ScheduleError("no feasible schedule")


def test_one_sided_infeasibility_is_a_mismatch(monkeypatch, capsys):
    monkeypatch.setattr(oracle, "solve", _infeasible)
    assert main(["verify", KNN_STENCIL]) == VERIFY_FAILED
    assert capsys.readouterr().out == (
        "MISMATCH: solver infeasible within horizon 64, oracle total 3/2 at "
        "{'knn': 0, 'stencil': 7} (1 candidates)\n")
    monkeypatch.undo()
    monkeypatch.setattr(oracle, "exhaustive_minimum", lambda graph, horizon: (None, None, 0))
    assert main(["verify", KNN_STENCIL]) == VERIFY_FAILED
    assert capsys.readouterr().out == (
        "MISMATCH: oracle infeasible within horizon 64, solver total 3/2 at "
        "{'knn': 0, 'stencil': 7} (0 candidates)\n")


# The benchmark's sched_dag pipeline `diamond5_1`. A Global in-edge leaves
# s1's cost flat over thousands of starts: a walk without the shift prune
# did not finish in minutes on it, and one without the pair prices took
# 74628 nodes.
DIAMOND5_1 = reconvergent("diamond5_1")


def test_flat_global_in_edges_verify_well_inside_the_budget(tmp_path, monkeypatch, capsys):
    path = tmp_path / "diamond5_1.json"
    path.write_text(DIAMOND5_1)
    monkeypatch.setattr(oracle, "MAX_SEARCH_NODES", oracle.MAX_SEARCH_NODES // 10)
    assert main(["verify", str(path)]) == 0
    starts = "{'s0': 0, 's1': 67, 's2': 3, 's3': 67, 's4': 68}"
    assert capsys.readouterr().out == (
        f"match: oracle total 259 at {starts}, solver total 259 at {starts} "
        "(1 candidates, horizon 3328)\n")


@pytest.mark.parametrize("budget, best", [(0, "none"), (3, "none"), (50, "259")])
def test_search_budget_is_inconclusive(budget, best, tmp_path, monkeypatch, capsys):
    path = tmp_path / "diamond5_1.json"
    path.write_text(DIAMOND5_1)
    monkeypatch.setattr(oracle, "MAX_SEARCH_NODES", budget)
    assert main(["verify", str(path)]) == INCONCLUSIVE
    assert capsys.readouterr().out == (
        f"inconclusive (budget): {budget} nodes, best total {best}\n")
    report = verify_against_oracle(parse_pipeline(DIAMOND5_1))
    assert not report.matches and report.budget_nodes == budget


@pytest.mark.parametrize("name, nodes", [("diamond", 11), ("diamond5_1", 69), ("diamond_chain", 91)])
def test_walk_node_counts(name, nodes, monkeypatch, capsys):
    # The walk proves each total in exactly this many nodes: one fewer
    # leaves the verdict inconclusive, and no prune may cost a node.
    golden = GOLDEN / "reconvergent" / name
    path = str(golden / "pipeline.json")
    monkeypatch.setattr(oracle, "MAX_SEARCH_NODES", nodes - 1)
    assert main(["verify", path]) == INCONCLUSIVE
    assert capsys.readouterr().out.startswith(f"inconclusive (budget): {nodes - 1} nodes, ")
    monkeypatch.setattr(oracle, "MAX_SEARCH_NODES", nodes)
    assert main(["verify", path]) == 0
    assert capsys.readouterr().out == (golden / "verify.txt").read_text()


def test_random_diamond_chains_never_mismatch(monkeypatch):
    # Chains of 2 to 5 diamonds, 7 to 16 stages, four of each, drawn by the
    # benchmark's stage rules. Under a budget per graph a verdict may be
    # inconclusive, but never a mismatch; the walk proves every total with
    # at most 1487 nodes, where a walk without the shift at cuts and the
    # pair prices ran out of 4M nodes on 5 of them.
    monkeypatch.setattr(oracle, "MAX_SEARCH_NODES", 20_000)
    decided = 0
    for diamonds in (2, 3, 4, 5):
        for seed in range(4):
            report = verify_against_oracle(diamond_chain(diamonds, seed))
            assert not str(report).startswith("MISMATCH"), str(report)
            if report.budget_nodes is None:
                assert report.matches, str(report)
                decided += 1
    assert decided == 16


def _scored_by_curves(model, offset):
    """An edge's (feasible, peak) at ``offset`` as the oracle scored it
    before it moved only the consumer side: new curves of the reference
    model at the offset, their stall margin, and the largest occupancy over
    every occupancy kink, in elements."""
    e = model.edge
    curves = curves_of(model, {e.producer: 0, e.consumer: offset})
    margin, _ = edge_stall_margin(curves)
    peak = Fraction(0)
    for t in occupancy_kinks(curves):
        peak = max(peak, occupancy(curves, t))
    return margin >= 0, peak


def _in_units(unit, scored):
    """(feasible, peak) with the peak in units, as ``_EdgeEval.evaluate``
    returns it; the peak must be a whole number of them."""
    ok, peak = scored
    assert (peak * unit).denominator == 1
    return ok, int(peak * unit)


SCORED_SUITES = ((200, {"start_seed": 5000}), (100, {"shape": "tree"}),
                 (200, {"start_seed": 30000}))


def test_consumer_shift_scoring_equals_new_curves_at_every_offset():
    # Two kinks and two stall ends moved by the offset give what new curves
    # at the offset give, on both sides of the threshold and past saturation.
    scored = 0
    for count, kw in SCORED_SUITES:
        for g in suite(count, **kw):
            for m, r in zip(edge_models(g), ref_models(g)):
                ev = oracle._EdgeEval(m)
                for d in range(ev.min_offset - 3, ev.sat_offset + 3):
                    assert ev.evaluate(d) == _in_units(g.unit, _scored_by_curves(r, d)), (
                        m.key, d)
                    scored += 1
    assert scored > 20000


def test_walk_is_unchanged_by_the_consumer_shift_scoring(monkeypatch):
    # Total, starts (order included) and candidate count, scored both ways,
    # where the horizon binds and where it does not.
    walks = 0
    for count, kw in SCORED_SUITES:
        for g in suite(count, **kw):
            latest = max(solve(build_constraints(g)).start_cycles.values())
            refs = {r.key: r for r in ref_models(g)}
            for horizon in (latest - 1, latest + 2):
                fast = exhaustive_minimum(g, horizon)
                with monkeypatch.context() as patch:
                    patch.setattr(oracle._EdgeEval, "evaluate", lambda self, d: _in_units(
                        g.unit, _scored_by_curves(refs[self.model.key], d)))
                    reference = exhaustive_minimum(g, horizon)
                assert fast == reference, horizon
                if fast[1] is not None:
                    assert list(fast[1]) == list(reference[1])
                walks += 1
    assert walks == 1000


# The walk as it was before the translation prune and the integer tables:
# every start vector in [0, latest]^n in lexicographic order, each edge of
# the reference model scored through a memo dict and summed as Fractions.
# The faster walk must return the same total, starts (order included) and
# candidate count.
class _PlainEdgeEval:
    def __init__(self, model):
        self.model = model
        self._memo = {}
        slack = ceil(model.depth_p + model.depth_c + model.dur_p + model.dur_c + 2)
        lo, hi = -slack, slack
        while lo < hi:
            mid = (lo + hi) // 2
            if self.evaluate(mid)[0]:
                hi = mid
            else:
                lo = mid + 1
        self.min_offset = lo
        self.min_cost = self.evaluate(lo)[1]
        self.sat_offset = max(self.min_offset, ceil(model.write_end - model.depth_c))

    def evaluate(self, offset):
        hit = self._memo.get(offset)
        if hit is None:
            hit = self._memo[offset] = _scored_by_curves(self.model, offset)
        return hit


def _plain_exhaustive_minimum(graph, horizon):
    order = graph.topo_order
    evals = {m.edge: _PlainEdgeEval(m) for m in ref_models(graph)}
    in_edges = {sid: [] for sid in order}
    for e in graph.edges:
        in_edges[e.consumer].append(e)
    rest_min = [Fraction(0)] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        rest_min[i] = rest_min[i + 1] + sum(
            (evals[e].min_cost for e in in_edges[order[i]]), Fraction(0))
    span = 1 + sum(
        max(abs(ev.min_offset), abs(ev.sat_offset)) + 1 for ev in evals.values())
    latest = min(horizon, span)
    best_total, best_starts, tried, placed = None, None, 0, {}

    def place(i, partial):
        nonlocal best_total, best_starts, tried
        if i == len(order):
            tried += 1
            if best_total is None or partial < best_total:
                best_total, best_starts = partial, dict(placed)
            return
        sid = order[i]
        lo = 0
        for e in in_edges[sid]:
            lo = max(lo, placed[e.producer] + evals[e].min_offset)
        for start in range(lo, latest + 1):
            cost, feasible = partial, True
            for e in in_edges[sid]:
                ok, peak = evals[e].evaluate(start - placed[e.producer])
                if not ok:
                    feasible = False
                    break
                cost += peak
            if not feasible:
                continue
            if best_total is not None and cost + rest_min[i + 1] >= best_total:
                break
            placed[sid] = start
            place(i + 1, cost)
            del placed[sid]

    place(0, Fraction(0))
    return best_total, best_starts, tried


def _single_producer(g):
    consumers = [e.consumer for e in g.edges]
    return len(consumers) == len(set(consumers))


# A diamond followed by a chain, and a skip edge with a tail, drawn with
# seeds on which the walk both shifts at a cut past position 0 and breaks
# or skips on a pair's price, at each horizon below.
CUT_GRAPHS = {"diamond_tail-39": [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5)],
              "skip_tail3-52": [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]}


@pytest.mark.parametrize("shape", ["reconvergent", "tree"])
def test_pruned_walk_equals_the_plain_walk(shape):
    # Suites on which the plain walk takes about a second in all; at a
    # binding horizon it takes 20 s or more on some trees of 5 and 6 stages.
    if shape == "reconvergent":
        graphs = [g for g in suite(110, start_seed=30000) if not _single_producer(g)]
        graphs += [drawn(edges, random.Random(seed)) for seed, edges in CUT_GRAPHS.items()]
    else:
        graphs = suite(12, start_seed=200, shape="tree")
    assert len(graphs) >= 11
    for g in graphs:
        latest = max(solve(build_constraints(g)).start_cycles.values())
        # One cycle short of the least optimum's latest start, where the
        # horizon binds, and two past it, where it does not.
        for horizon in (latest - 1, latest + 2):
            fast = exhaustive_minimum(g, horizon)
            plain = _plain_exhaustive_minimum(g, horizon)
            assert fast == plain, horizon
            if fast[1] is not None:
                assert list(fast[1]) == list(plain[1])


def test_seeded_threshold_equals_the_plain_bisection(monkeypatch):
    # The record's threshold is what the plain bisection over [-slack, slack]
    # finds, and the only record built is the one at offset 0: the scorings
    # of the threshold and the offset below it move its consumer side.
    built = []

    def counted(*args, **kw):
        built.append(args)
        return edge_ticks(*args, **kw)

    monkeypatch.setattr(oracle, "edge_ticks", counted)
    edges = 0
    for graphs in (suite(300, start_seed=5000), suite(200, shape="tree"),
                   suite(300, start_seed=30000)):
        for g in graphs:
            for m, r in zip(edge_models(g), ref_models(g)):
                built.clear()
                seeded = oracle._EdgeEval(m)
                assert len(built) == 1, m.key
                plain = _PlainEdgeEval(r)
                assert (seeded.min_offset, Fraction(seeded.min_cost, g.unit),
                        seeded.sat_offset) == (
                    plain.min_offset, plain.min_cost, plain.sat_offset), m.key
                edges += 1
    assert edges > 2000


@pytest.mark.parametrize("shift", [1, -1])
def test_wrong_threshold_is_an_internal_inconsistency(shift, monkeypatch, capsys):
    # A threshold one above the least feasible offset fails the scoring one
    # below it, and one below fails its own: verify reports either as an
    # input error, not a traceback and not a verdict.
    threshold = oracle._EdgeEval._threshold_guess
    monkeypatch.setattr(oracle._EdgeEval, "_threshold_guess",
                        lambda self: threshold(self) + shift)
    graph = parse_pipeline(Path(KNN_STENCIL).read_text())
    with pytest.raises(ScheduleError, match="internal inconsistency"):
        exhaustive_minimum(graph, 128)
    assert main(["verify", KNN_STENCIL]) == USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: internal inconsistency: offset ")


def test_failed_row_above_the_threshold_is_an_internal_inconsistency(monkeypatch, capsys):
    # Feasibility only grows with the offset, so every row the walk reads
    # passes the stall check. A row one above the threshold that fails
    # contradicts that proof: verify reports an input error, not a verdict
    # with the start that read it skipped.
    evaluate = oracle._EdgeEval.evaluate

    def failing(self, offset):
        ok, peak = evaluate(self, offset)
        return ok and not (hasattr(self, "min_offset") and offset == self.min_offset + 1), peak

    monkeypatch.setattr(oracle._EdgeEval, "evaluate", failing)
    assert main(["verify", str(GOLDEN / "reconvergent" / "diamond" / "pipeline.json")]) == USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: internal inconsistency: edge ")


def test_whole_element_walk_equals_the_rounded_optimum(monkeypatch):
    # The walk with each peak rounded up to whole elements finds the
    # rational optimum with each edge's buffer rounded up, which is what
    # `optimize --element-bytes 1` reports: measured here, not proved.
    evaluate = oracle._EdgeEval.evaluate

    def whole(self, offset):
        ok, peak = evaluate(self, offset)
        unit = self.model.unit
        return ok, -(-peak // unit) * unit

    monkeypatch.setattr(oracle._EdgeEval, "evaluate", whole)
    graphs = fractional = 0
    for g in (suite(200, start_seed=5000) + suite(120, start_seed=30000)
              + suite(60, shape="tree")):
        sol = solve(build_constraints(g))
        total, _, _ = exhaustive_minimum(g, max(sol.start_cycles.values()) + 2)
        assert total == sol.to_json_dict(element_bytes=1)["total_buffer_bytes"]
        graphs += 1
        fractional += any(size.denominator > 1 for size in sol.buffer_sizes.values())
    assert (graphs, fractional) == (380, 258)
