"""Exact linear programming over rationals.

Small, dependency-free solver used by the schedule optimizer: a two-phase
primal simplex with Bland's rule on ``Fraction`` arithmetic (no tolerances,
no cycling). Problem sizes here are tiny (tens of rows), so a dense tableau
is fine.

Rows are stored as ``a . x <= b`` and go to the tableau as given, with no
presolve: a row with no coefficients is feasible exactly when ``b >= 0``,
and phase one finds that as for any other row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

Status = str
OPTIMAL: Status = "optimal"
INFEASIBLE: Status = "infeasible"
UNBOUNDED: Status = "unbounded"

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass
class Variable:
    name: str
    lower: Fraction
    upper: Fraction | None
    objective: Fraction


@dataclass
class Problem:
    """min  c . x   s.t.  rows (a . x <= b),  lower <= x <= upper."""

    variables: list[Variable] = field(default_factory=list)
    rows: list[tuple[dict[int, Fraction], Fraction]] = field(default_factory=list)

    def add_variable(
        self,
        name: str,
        lower: Fraction | int = 0,
        upper: Fraction | int | None = None,
        objective: Fraction | int = 0,
    ) -> int:
        self.variables.append(
            Variable(
                name=name,
                lower=Fraction(lower),
                upper=None if upper is None else Fraction(upper),
                objective=Fraction(objective),
            )
        )
        return len(self.variables) - 1

    def add_le(self, coeffs: dict[int, Fraction | int], rhs: Fraction | int) -> None:
        cleaned = {j: Fraction(a) for j, a in coeffs.items() if a != 0}
        self.rows.append((cleaned, Fraction(rhs)))

    def add_ge(self, coeffs: dict[int, Fraction | int], rhs: Fraction | int) -> None:
        self.add_le({j: -Fraction(a) for j, a in coeffs.items()}, -Fraction(rhs))


@dataclass
class Solution:
    status: Status
    objective: Fraction | None = None
    values: list[Fraction] | None = None


class _Tableau:
    """Dense simplex tableau with an explicit basis, all entries Fractions."""

    def __init__(self, rows: list[list[Fraction]], basis: list[int]):
        self.rows = rows
        self.basis = basis

    @property
    def m(self) -> int:
        return len(self.rows)

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

    def minimize(self, costs: list[Fraction], enterable: int) -> Status:
        """Run Bland's rule until optimal/unbounded; only columns below
        ``enterable`` may enter the basis."""
        reduced = list(costs[:enterable])
        for i, b in enumerate(self.basis):
            cb = costs[b]
            if cb != 0:
                for j, a in enumerate(self.rows[i][:enterable]):
                    if a:
                        reduced[j] -= cb * a
        while True:
            basic = set(self.basis)
            enter = -1
            for j in range(enterable):
                if reduced[j] < 0 and j not in basic:
                    enter = j
                    break
            if enter < 0:
                return OPTIMAL
            leave = -1
            best_ratio: Fraction | None = None
            for i in range(self.m):
                a = self.rows[i][enter]
                if a > 0:
                    ratio = self.rows[i][-1] / a
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (ratio == best_ratio and self.basis[i] < self.basis[leave])
                    ):
                        best_ratio = ratio
                        leave = i
            if leave < 0:
                return UNBOUNDED
            self.pivot(leave, enter)
            # Keep the reduced costs current instead of pricing anew.
            factor = reduced[enter]
            for j, a in enumerate(self.rows[leave][:enterable]):
                if a:
                    reduced[j] -= factor * a


def solve_lp(prob: Problem) -> Solution:
    """Exact optimum of the linear program ``prob``."""
    n = len(prob.variables)
    for v in prob.variables:
        if v.upper is not None and v.lower > v.upper:
            return Solution(INFEASIBLE)

    # Shift every variable by its lower bound: x = lo + y with y >= 0.
    lows = [v.lower for v in prob.variables]
    work_rows: list[tuple[list[Fraction], Fraction]] = []
    for coeffs, rhs in prob.rows:
        dense = [_ZERO] * n
        shift = _ZERO
        for j, a in coeffs.items():
            dense[j] = a
            shift += a * lows[j]
        work_rows.append((dense, rhs - shift))
    for j, v in enumerate(prob.variables):
        if v.upper is not None:
            dense = [_ZERO] * n
            dense[j] = _ONE
            work_rows.append((dense, v.upper - v.lower))

    obj = [v.objective for v in prob.variables]
    if not work_rows:
        values: list[Fraction] = []
        for v in prob.variables:
            if v.objective < 0:
                if v.upper is None:
                    return Solution(UNBOUNDED)
                values.append(v.upper)
            else:
                values.append(v.lower)
        total = sum((v.objective * x for v, x in zip(prob.variables, values)), _ZERO)
        return Solution(OPTIMAL, total, values)

    # Columns: y (n) | one slack or surplus per row (m) | artificials | rhs.
    m = len(work_rows)
    ncols = n + m
    art_of_row: dict[int, int] = {}
    next_art = ncols
    for i, (_, rhs) in enumerate(work_rows):
        if rhs < 0:
            art_of_row[i] = next_art
            next_art += 1
    total_cols = next_art

    rows_out: list[list[Fraction]] = []
    basis: list[int] = []
    for i, (dense, rhs) in enumerate(work_rows):
        if rhs >= 0:
            row = list(dense) + [_ZERO] * (total_cols - n) + [rhs]
            row[n + i] = _ONE
            rows_out.append(row)
            basis.append(n + i)
        else:
            # Negate to get a nonnegative rhs; slack becomes a surplus.
            row = [-a for a in dense] + [_ZERO] * (total_cols - n) + [-rhs]
            row[n + i] = -_ONE
            row[art_of_row[i]] = _ONE
            rows_out.append(row)
            basis.append(art_of_row[i])
    tab = _Tableau(rows_out, basis)

    if art_of_row:
        phase1 = [_ZERO] * total_cols
        for col in art_of_row.values():
            phase1[col] = _ONE
        if tab.minimize(phase1, total_cols) != OPTIMAL:
            return Solution(INFEASIBLE)
        art_cols = set(art_of_row.values())
        if any(tab.rows[i][-1] != 0 for i in range(tab.m) if tab.basis[i] in art_cols):
            return Solution(INFEASIBLE)
        # Drive zero-valued artificials out of the basis; a row that cannot
        # pivot on any structural column is redundant and is dropped.
        for i in range(tab.m - 1, -1, -1):
            if tab.basis[i] in art_cols:
                for j in range(ncols):
                    if tab.rows[i][j] != 0:
                        tab.pivot(i, j)
                        break
                else:
                    del tab.rows[i]
                    del tab.basis[i]

    phase2 = list(obj) + [_ZERO] * (total_cols - n)
    status = tab.minimize(phase2, ncols)
    if status != OPTIMAL:
        return Solution(status)

    y = [_ZERO] * total_cols
    for i, b in enumerate(tab.basis):
        y[b] = tab.rows[i][-1]
    values = [lows[j] + y[j] for j in range(n)]
    total = sum((obj[j] * values[j] for j in range(n)), _ZERO)
    return Solution(OPTIMAL, total, values)
