"""``solver.least_optimal`` against the exact simplex it replaced.

The reference is the dense ``Fraction`` tableau with Bland's rule that
priced each saturated set before, kept here with its tests: ``Problem``,
``solve_lp`` and ``reference_set``, the LP of one set. A property test
compares each set's optimum and least start vector from both routes on the
generated reconvergent suites. ``compare_sweep(1)`` runs the full sweep;
Tier-1 runs a slice of it.

The reference simplex has one phase. Every row ``a . x <= b``, and every
upper bound, must hold with each variable at its lower bound: that point is
the first vertex, with one slack per row in the basis. ``solve_lp`` raises
``ValueError`` for a row that does not hold there; it never searches for a
feasible point.

Each variable's ``tiebreak`` is a second objective, minimized over the
first one's optimal face. At the first optimum no column prices below
zero, and a feasible point is optimal exactly when every column of
positive reduced cost is zero there. So only columns that price at zero
may enter afterwards. A pivot on such a column subtracts zero times the
pivot row from the first objective's reduced costs, which leaves them and
that objective's value unchanged: the second pass walks the optimal face
and nothing else. Bland's rule started from the lower bounds does not
always stop at the least optimal vertex: on the 7-stage diamond pinned in
``tests/golden/reconvergent/diamond7_tiebreak/`` the first pass alone ends
at an optimum with s2 at 29, where the tiebreak pass puts it at 0.
"""

import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction as F
from itertools import combinations
from math import floor
from pathlib import Path

import pytest

from _pipegen import suite
from _reference import ref_models
from pointpipe import optimizer
from pointpipe.optimizer import ScheduleError, build_constraints, optimize
from pointpipe.solver import Tension, least_optimal

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
_ZERO = F(0)
_ONE = F(1)


@dataclass
class Variable:
    name: str
    lower: F
    upper: F | None
    objective: F
    tiebreak: F


@dataclass
class Problem:
    """min  c . x, then min  t . x  among its minimizers,
    s.t.  rows (a . x <= b),  lower <= x <= upper."""

    variables: list[Variable] = field(default_factory=list)
    rows: list[tuple[dict[int, F], F]] = field(default_factory=list)

    def add_variable(self, name, lower=0, upper=None, objective=0, tiebreak=0) -> int:
        self.variables.append(Variable(
            name=name, lower=F(lower), upper=None if upper is None else F(upper),
            objective=F(objective), tiebreak=F(tiebreak)))
        return len(self.variables) - 1

    def add_le(self, coeffs, rhs) -> None:
        self.rows.append(({j: F(a) for j, a in coeffs.items() if a != 0}, F(rhs)))


@dataclass
class Solution:
    status: str
    objective: F | None = None
    values: list[F] | None = None


class _Tableau:
    """Dense simplex tableau with an explicit basis, all entries Fractions;
    each row ends with its right-hand side."""

    def __init__(self, rows, basis):
        self.rows = rows
        self.basis = basis

    def pivot(self, prow, pcol):
        inv = _ONE / self.rows[prow][pcol]
        self.rows[prow] = rowdata = [a * inv if a else a for a in self.rows[prow]]
        nonzero = [(j, a) for j, a in enumerate(rowdata) if a]
        for r, row in enumerate(self.rows):
            factor = row[pcol]
            if r != prow and factor != 0:
                for j, a in nonzero:
                    row[j] -= factor * a
        self.basis[prow] = pcol

    def minimize(self, costs, enterable):
        """Run Bland's rule over the columns in ``enterable`` (ascending)
        until none prices below zero or one is unbounded; return the status
        and every column's reduced cost."""
        reduced = [*costs, _ZERO]
        for i, b in enumerate(self.basis):
            cb = costs[b]
            if cb != 0:
                for j, a in enumerate(self.rows[i]):
                    if a:
                        reduced[j] -= cb * a
        while True:
            enter = next((j for j in enterable if reduced[j] < 0), -1)
            if enter < 0:
                return OPTIMAL, reduced
            leave = -1
            best_ratio = None
            for i, row in enumerate(self.rows):
                a = row[enter]
                if a > 0:
                    ratio = row[-1] / a
                    if (best_ratio is None or ratio < best_ratio
                            or (ratio == best_ratio and self.basis[i] < self.basis[leave])):
                        best_ratio = ratio
                        leave = i
            if leave < 0:
                return UNBOUNDED, reduced
            self.pivot(leave, enter)
            factor = reduced[enter]
            for j, a in enumerate(self.rows[leave]):
                if a:
                    reduced[j] -= factor * a


def solve_lp(prob: Problem) -> Solution:
    """Exact optimum of ``prob``, least in ``tiebreak`` among the optima."""
    variables = prob.variables
    n = len(variables)
    lows = [v.lower for v in variables]
    bounds = [({j: _ONE}, v.upper) for j, v in enumerate(variables) if v.upper is not None]
    constraints = prob.rows + bounds
    m = len(constraints)
    rows = []
    for i, (coeffs, rhs) in enumerate(constraints):
        row = [_ZERO] * (n + m + 1)
        for j, a in coeffs.items():
            row[j] = a
            rhs -= a * lows[j]
        if rhs < 0:
            raise ValueError(f"row {i} of {m} does not hold at the lower bounds")
        row[n + i], row[-1] = _ONE, rhs
        rows.append(row)
    tab = _Tableau(rows, list(range(n, n + m)))
    slacks, columns = [_ZERO] * m, list(range(n + m))
    status, reduced = tab.minimize([v.objective for v in variables] + slacks, columns)
    if status == OPTIMAL:
        face = [j for j in columns if reduced[j] == 0]
        status, _ = tab.minimize([v.tiebreak for v in variables] + slacks, face)
    if status != OPTIMAL:
        return Solution(status)
    y = [_ZERO] * (n + m)
    for i, b in enumerate(tab.basis):
        y[b] = tab.rows[i][-1]
    values = [lo + y[j] for j, lo in enumerate(lows)]
    total = sum((v.objective * x for v, x in zip(variables, values)), _ZERO)
    return Solution(OPTIMAL, total, values)


def integer_lines(m):
    """``m.branches``, plus the chord through g(k) and g(k + 1) when b1 and
    b2 cross strictly between the integers k and k + 1: their maximum
    agrees with ``g`` at every integer offset and has its kinks only
    there. ``m`` is the Fraction reference model, and this reads its lines
    alone, not its ``pieces``."""
    (s1, a1), (s2, a2) = lines = m.branches
    if s1 == s2:
        return [max(lines)]
    cross = (a2 - a1) / (s1 - s2)
    if cross.denominator == 1:
        return list(lines)
    k = floor(cross)
    rise = m.g(k + 1) - m.g(k)
    return [*lines, (rise, m.g(k) - rise * k)]


def reference_set(system, saturated):
    """Optimal total and least start vector of one saturated set, by the
    LP that priced it before, on the Fraction reference models: each free
    edge pays B - u above its ``integer_lines``, B being ``g`` at the box's
    largest offset, and the starts' sum is the tiebreak."""
    prob = Problem()
    earliest, horizon = system.earliest, system.horizon
    start = {s.id: prob.add_variable(f"start[{s.id}]", lower=earliest[s.id], upper=horizon,
                                     tiebreak=1)
             for s in system.graph.stages}
    total = _ZERO
    for i, m in enumerate(ref_models(system.graph)):
        sp, sc = start[m.edge.producer], start[m.edge.consumer]
        prob.add_le({sp: 1, sc: -1}, -m.min_offset)
        if i in saturated or m.max_floor_offset is None:
            total += m.volume
            continue
        top = m.g(horizon - earliest[m.edge.producer])
        total += top
        u = prob.add_variable(f"saving[{m.key}]", objective=-1)
        for slope, at0 in integer_lines(m):
            prob.add_le({u: 1, sc: slope, sp: -slope}, top - at0)
    sol = solve_lp(prob)
    assert sol.status == OPTIMAL
    return total + sol.objective, sol.values[:len(system.graph.stages)]


def test_lp_simple_vertex():
    # min -x - y  s.t.  x + y <= 4, x <= 3;  optimum at (3, 1).
    p = Problem()
    x = p.add_variable("x", objective=-1)
    y = p.add_variable("y", objective=-1)
    p.add_le({x: 1, y: 1}, 4)
    p.add_le({x: 1}, 3)
    sol = solve_lp(p)
    assert sol.status == OPTIMAL
    assert sol.objective == -4
    assert sol.values == [F(3), F(1)]


def test_lp_exact_fractions():
    # max x  s.t.  3x <= 1  ->  x = 1/3 exactly.
    p = Problem()
    x = p.add_variable("x", objective=-1)
    p.add_le({x: 3}, 1)
    sol = solve_lp(p)
    assert sol.objective == F(-1, 3) and sol.values == [F(1, 3)]


def test_lp_rejects_rows_that_fail_at_the_lower_bounds():
    # The simplex starts at the lower bounds and never searches for a
    # feasible point, so a row that fails there is a caller's error.
    p = Problem()
    x = p.add_variable("x", upper=1)
    p.add_le({x: -1}, -2)
    with pytest.raises(ValueError):
        solve_lp(p)
    p = Problem()
    p.add_variable("x", lower=2, upper=1)
    with pytest.raises(ValueError):
        solve_lp(p)
    p = Problem()
    p.add_variable("x", objective=1)
    p.add_le({}, -1)
    with pytest.raises(ValueError):
        solve_lp(p)


def test_lp_unbounded():
    p = Problem()
    p.add_variable("x", objective=-1)
    assert solve_lp(p).status == UNBOUNDED


def test_lp_negative_lower_bounds():
    # max x  s.t.  2x <= -4, x >= -5: the row holds at x = -5.
    p = Problem()
    x = p.add_variable("x", lower=-5, objective=-1)
    p.add_le({x: 2}, -4)
    sol = solve_lp(p)
    assert sol.objective == 2 and sol.values == [F(-2)]


def test_lp_degenerate_terminates():
    # Redundant constraints meeting at one vertex; Bland's rule must exit.
    p = Problem()
    x = p.add_variable("x", objective=-1)
    y = p.add_variable("y", objective=-1)
    for rhs in (2, 2, 2):
        p.add_le({x: 1, y: 1}, rhs)
    p.add_le({x: 1}, 2)
    p.add_le({y: 1}, 2)
    sol = solve_lp(p)
    assert sol.status == OPTIMAL and sol.objective == -2


def test_lp_empty_rows():
    # A row with no coefficients holds exactly when its rhs is nonnegative.
    p = Problem()
    x = p.add_variable("x", objective=1)
    p.add_le({}, 0)
    p.add_le({x: 0}, 3)
    sol = solve_lp(p)
    assert sol.status == OPTIMAL and sol.values == [F(0)]


@pytest.mark.parametrize("tiebreak, least", [((1, 0), [1, 3]), ((0, 1), [3, 1]),
                                             ((1, 1), None)])
def test_lp_tiebreak_picks_its_least_point_on_the_optimal_face(tiebreak, least):
    # min -x - y  s.t.  x + y <= 4, x <= 3, y <= 3: every point from (1, 3)
    # to (3, 1) is optimal, and the tiebreak chooses among them alone.
    p = Problem()
    x = p.add_variable("x", upper=3, objective=-1, tiebreak=tiebreak[0])
    y = p.add_variable("y", upper=3, objective=-1, tiebreak=tiebreak[1])
    p.add_le({x: 1, y: 1}, 4)
    sol = solve_lp(p)
    assert sol.objective == -4
    if least is None:
        # x + y is constant on the face, so any optimum is least.
        assert sum(sol.values) == 4
    else:
        assert sol.values == [F(v) for v in least]


def _vertices(rows, n):
    """Every point where n of ``rows`` (a, b) hold with equality and all
    hold, by exact Gaussian elimination."""
    points = set()
    for tight in combinations(rows, n):
        m = [list(a) + [b] for a, b in tight]
        for col in range(n):
            pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
            if pivot is None:
                break
            m[col], m[pivot] = m[pivot], m[col]
            for r in range(n):
                if r != col and m[r][col] != 0:
                    f = m[r][col] / m[col][col]
                    m[r] = [u - f * v for u, v in zip(m[r], m[col])]
        else:
            x = tuple(m[r][n] / m[r][r] for r in range(n))
            if all(sum(ai * xi for ai, xi in zip(a, x)) <= b for a, b in rows):
                points.add(x)
    return points


def test_lp_matches_vertex_enumeration_on_random_bounded_problems():
    rng = random.Random(20250305)
    for _ in range(150):
        n = rng.choice((2, 3))
        lows = [F(rng.randint(-3, 3)) for _ in range(n)]
        ups = [lo + rng.randint(0, 6) for lo in lows]
        p = Problem()
        for j in range(n):
            p.add_variable(f"x{j}", lower=lows[j], upper=ups[j],
                           objective=rng.randint(-3, 3), tiebreak=rng.randint(-3, 3))
        dense = []
        for _ in range(rng.randint(0, 4)):
            a = [F(rng.randint(-4, 4)) for _ in range(n)]
            b = sum(ai * lo for ai, lo in zip(a, lows)) + rng.randint(0, 8)
            p.add_le(dict(enumerate(a)), b)
            dense.append((a, b))
        # The box as rows too, so the polytope is bounded and has vertices.
        for j in range(n):
            unit = [F(int(k == j)) for k in range(n)]
            dense += [(unit, ups[j]), ([-u for u in unit], -lows[j])]
        points = _vertices(dense, n)
        cost = {x: sum(v.objective * xi for v, xi in zip(p.variables, x)) for x in points}
        best = min(cost.values())
        tie = min(sum(v.tiebreak * xi for v, xi in zip(p.variables, x))
                  for x in points if cost[x] == best)
        sol = solve_lp(p)
        assert sol.status == OPTIMAL and sol.objective == best
        assert all(sum(ai * xi for ai, xi in zip(a, sol.values)) <= b for a, b in dense)
        assert sum(v.tiebreak * xi for v, xi in zip(p.variables, sol.values)) == tie


def test_least_optimal_on_a_hand_solved_chain():
    # a -> b costs 2 per cycle of tension; b -> c gains 3 per cycle up to
    # tension 4 and costs 1 past it. Starts lie in [0, 10] with a at 1 or
    # more. The least optimum pins a at 1 and b at a + 1, and puts c at b + 4.
    arcs = [Tension(0, 1, 1, (), (2,)), Tension(1, 2, 0, (4,), (-3, 1))]
    assert least_optimal([1, 2, 2], [10, 10, 10], arcs) == [1, 2, 6]
    # A floor the lower bounds miss, and a box with no room, are errors.
    with pytest.raises(ValueError):
        least_optimal([1, 1, 2], [10, 10, 10], arcs)
    with pytest.raises(ValueError):
        least_optimal([1, 2, 2], [10, 1, 10], arcs)


def test_least_optimal_equals_brute_force_on_random_small_problems():
    rng = random.Random(20030700)
    for _ in range(300):
        n = rng.randint(1, 4)
        lower = [rng.randint(0, 3) for _ in range(n)]
        upper = [lo + rng.randint(0, 4) for lo in lower]
        arcs = []
        for _ in range(rng.randint(0, 5)):
            p, c = rng.sample(range(n), 2) if n > 1 else (0, 0)
            if p == c:
                continue
            floor = lower[c] - lower[p] - rng.randint(0, 2)
            kinks = tuple(sorted(rng.sample(range(floor + 1, floor + 8), rng.randint(0, 3))))
            slopes = tuple(sorted(rng.sample(range(-6, 7), len(kinks) + 1)))
            arcs.append(Tension(p, c, floor, kinks, slopes))
        boxes = [range(lo, hi + 1) for lo, hi in zip(lower, upper)]
        points = [[]]
        for box in boxes:
            points = [x + [v] for x in points for v in box]
        costs = {}
        for x in points:
            if all(x[a.head] - x[a.tail] >= a.floor for a in arcs):
                costs[tuple(x)] = sum(a.cost(x[a.head] - x[a.tail]) for a in arcs)
        best = min(costs.values())
        optima = [x for x, v in costs.items() if v == best]
        least = [min(x[i] for x in optima) for i in range(n)]
        assert least_optimal(lower, upper, arcs) == least, (lower, upper, arcs)


def _reconvergent_systems(graphs):
    """Each reconvergent graph's system at one cycle short of its optimum's
    latest start, two past it and the default horizon, where it has one."""
    for g in graphs:
        consumers = [e.consumer for e in g.edges]
        if len(consumers) == len(set(consumers)):
            continue
        latest = max(optimize(g).start_cycles.values())
        for horizon in (latest - 1, latest + 2, None):
            try:
                yield build_constraints(g, horizon=horizon)
            except ScheduleError:
                continue


def compare_sweep(stride: int) -> int:
    """Check every saturated set's optimum and least start vector against
    the reference LP on every ``stride``-th reconvergent graph of both
    suites, at each horizon of ``_reconvergent_systems``. Returns the count
    of sets compared."""
    graphs = suite(1430, start_seed=30000) + suite(1500, start_seed=60000)
    compared = 0
    for system in _reconvergent_systems(graphs[::stride]):
        sets = optimizer._SaturatedSets(system)
        for size in range(len(sets.rising) + 1):
            for z in combinations(sets.rising, size):
                total, vector = sets.solve(z)
                assert (F(total, system.graph.unit), vector) == reference_set(system, z), (
                    system.graph.stages, system.horizon, z)
                compared += 1
    return compared


def test_saturated_sets_equal_the_reference_lp():
    assert compare_sweep(23) >= 300


def test_importing_the_cli_loads_the_solver():
    # bench/run.py's import_program reads sys.modules["pointpipe.solver"]
    # after it imports pointpipe.cli, so every benchmark run needs the
    # module to load with the CLI.
    code = "import sys, pointpipe.cli; sys.exit('pointpipe.solver' not in sys.modules)"
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
