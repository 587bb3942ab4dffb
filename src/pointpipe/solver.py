"""Exact linear programming over rationals.

Small, dependency-free solver used by the schedule optimizer: a primal
simplex with Bland's rule on ``Fraction`` arithmetic (no tolerances, no
cycling). Problem sizes here are tiny (tens of rows), so a dense tableau
is fine.

The simplex has one phase. Every row ``a . x <= b``, and every upper
bound, must hold with each variable at its lower bound: that point is the
first vertex, with one slack per row in the basis. ``solve_lp`` raises
``ValueError`` for a row that does not hold there; it never searches for
a feasible point.

Each variable's ``tiebreak`` is a second objective, minimized over the
first one's optimal face. At the first optimum no column prices below
zero, and a feasible point is optimal exactly when every column of
positive reduced cost is zero there. So only columns that price at zero
may enter afterwards. A pivot on such a column subtracts zero times the
pivot row from the first objective's reduced costs, which leaves them and
that objective's value unchanged: the second pass walks the optimal face
and nothing else.

The second pass is needed. Bland's rule started from the least vertex,
the lower bounds, does not always stop at the least optimal vertex: on the
7-stage diamond pinned in ``tests/golden/reconvergent/diamond7_tiebreak/``
the first pass alone ends at an optimum with one branch start at 29, where
the tiebreak pass puts it at 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

Status = str
OPTIMAL: Status = "optimal"
UNBOUNDED: Status = "unbounded"

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass
class Variable:
    name: str
    lower: Fraction
    upper: Fraction | None
    objective: Fraction
    tiebreak: Fraction


@dataclass
class Problem:
    """min  c . x, then min  t . x  among its minimizers,
    s.t.  rows (a . x <= b),  lower <= x <= upper."""

    variables: list[Variable] = field(default_factory=list)
    rows: list[tuple[dict[int, Fraction], Fraction]] = field(default_factory=list)

    def add_variable(
        self,
        name: str,
        lower: Fraction | int = 0,
        upper: Fraction | int | None = None,
        objective: Fraction | int = 0,
        tiebreak: Fraction | int = 0,
    ) -> int:
        self.variables.append(
            Variable(
                name=name,
                lower=Fraction(lower),
                upper=None if upper is None else Fraction(upper),
                objective=Fraction(objective),
                tiebreak=Fraction(tiebreak),
            )
        )
        return len(self.variables) - 1

    def add_le(self, coeffs: dict[int, Fraction | int], rhs: Fraction | int) -> None:
        cleaned = {j: Fraction(a) for j, a in coeffs.items() if a != 0}
        self.rows.append((cleaned, Fraction(rhs)))


@dataclass
class Solution:
    status: Status
    objective: Fraction | None = None
    values: list[Fraction] | None = None


class _Tableau:
    """Dense simplex tableau with an explicit basis, all entries Fractions;
    each row ends with its right-hand side."""

    def __init__(self, rows: list[list[Fraction]], basis: list[int]):
        self.rows = rows
        self.basis = basis

    def pivot(self, prow: int, pcol: int) -> None:
        inv = _ONE / self.rows[prow][pcol]
        self.rows[prow] = rowdata = [a * inv if a else a for a in self.rows[prow]]
        # Rows are mostly zeros: update only the pivot row's nonzero columns.
        nonzero = [(j, a) for j, a in enumerate(rowdata) if a]
        for r, row in enumerate(self.rows):
            factor = row[pcol]
            if r != prow and factor != 0:
                for j, a in nonzero:
                    row[j] -= factor * a
        self.basis[prow] = pcol

    def minimize(
        self, costs: list[Fraction], enterable: list[int]
    ) -> tuple[Status, list[Fraction]]:
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
            # A basic column prices at exactly zero, so it never enters.
            enter = next((j for j in enterable if reduced[j] < 0), -1)
            if enter < 0:
                return OPTIMAL, reduced
            leave = -1
            best_ratio: Fraction | None = None
            for i, row in enumerate(self.rows):
                a = row[enter]
                if a > 0:
                    ratio = row[-1] / a
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (ratio == best_ratio and self.basis[i] < self.basis[leave])
                    ):
                        best_ratio = ratio
                        leave = i
            if leave < 0:
                return UNBOUNDED, reduced
            self.pivot(leave, enter)
            # Keep the reduced costs current instead of pricing anew.
            factor = reduced[enter]
            for j, a in enumerate(self.rows[leave]):
                if a:
                    reduced[j] -= factor * a


def solve_lp(prob: Problem) -> Solution:
    """Exact optimum of ``prob``, least in ``tiebreak`` among the optima.

    Raises ``ValueError`` when a row or an upper bound does not hold with
    every variable at its lower bound (see the module docstring)."""
    variables = prob.variables
    n = len(variables)
    lows = [v.lower for v in variables]
    bounds = [({j: _ONE}, v.upper) for j, v in enumerate(variables) if v.upper is not None]
    # Shift every variable by its lower bound, x = lower + y with y >= 0, so
    # the origin is feasible and the slacks are the first basis.
    constraints = prob.rows + bounds
    m = len(constraints)
    rows: list[list[Fraction]] = []
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
