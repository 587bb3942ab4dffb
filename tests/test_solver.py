from fractions import Fraction as F

from pointpipe.solver import (
    INFEASIBLE,
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
    # min x  s.t.  3x >= 1  ->  x = 1/3 exactly.
    p = Problem()
    x = p.add_variable("x", objective=1)
    p.add_ge({x: 3}, 1)
    sol = solve_lp(p)
    assert sol.objective == F(1, 3)


def test_lp_infeasible():
    p = Problem()
    x = p.add_variable("x", upper=1)
    p.add_ge({x: 1}, 2)
    assert solve_lp(p).status == INFEASIBLE


def test_lp_unbounded():
    p = Problem()
    p.add_variable("x", objective=-1)
    assert solve_lp(p).status == UNBOUNDED


def test_lp_negative_lower_bounds():
    p = Problem()
    x = p.add_variable("x", lower=-5, objective=1)
    p.add_ge({x: 1}, -3)
    sol = solve_lp(p)
    assert sol.objective == -3


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
    p.add_le({}, -1)
    assert solve_lp(p).status == INFEASIBLE
