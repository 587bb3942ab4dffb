import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from pointpipe.solver import (
    OPTIMAL,
    UNBOUNDED,
    Problem,
    solve_lp,
)


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
