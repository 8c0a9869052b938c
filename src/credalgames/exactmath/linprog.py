"""Exact-rational linear programming.

A two-phase tableau simplex over ``Fraction`` with Bland's pivoting rule:
every number is exact, and the fixed rule makes the returned optimum
deterministic for a given program.  Problem sizes in this library are tiny
(a handful of variables and rows), so clarity wins over sparse tricks.

Every variable is nonnegative.  An optimal solution also carries
``duals``, one per row of ``LinearProgram.constraints``, read off the
final reduced costs.  They are shadow prices of the maximization:
``y >= 0`` on ``<=`` rows, ``y <= 0`` on ``>=`` rows, free on ``==`` rows.
They always form an optimal dual solution: ``A^T y >= c``, and ``b . y``
equals the optimal value.
"""

from __future__ import annotations

from fractions import Fraction

from .rational import rat
from .record import Record
from .vector import DimensionMismatchError, Vector

LESS_EQUAL = "<="
EQUAL = "=="
GREATER_EQUAL = ">="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class LinearProgram(Record):
    """Maximize ``objective . x`` over ``x >= 0`` subject to ``constraints``,
    each a ``(coefficients, relation, rhs)`` row."""

    __slots__ = ("objective", "constraints")

    def __init__(self, objective: Vector, constraints: tuple[tuple[Vector, str, Fraction], ...]):
        n = objective.dimension
        for coefficients, relation, _ in constraints:
            if relation not in (LESS_EQUAL, EQUAL, GREATER_EQUAL):
                raise ValueError(f"unknown relation {relation!r}")
            if coefficients.dimension != n:
                raise DimensionMismatchError(
                    f"constraint has {coefficients.dimension} coefficients, expected {n}"
                )
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "constraints", constraints)

    @classmethod
    def build(cls, objective, constraints) -> "LinearProgram":
        obj = objective if isinstance(objective, Vector) else Vector(objective)
        rows = tuple(
            (coeffs if isinstance(coeffs, Vector) else Vector(coeffs), rel, rat(rhs))
            for coeffs, rel, rhs in constraints
        )
        return cls(obj, rows)


class LpSolution(Record, defaults={"value": None, "point": None, "duals": None}):
    """A status; when optimal, the value, an optimal point and one dual per
    row."""

    __slots__ = ("status", "value", "point", "duals")

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL


class _Tableau:
    """Dense simplex tableau over Fractions with Bland's rule."""

    def __init__(self, rows: list[list[Fraction]], rhs: list[Fraction], basis: list[int]):
        self.rows = rows
        self.rhs = rhs
        self.basis = basis

    def pivot(self, r: int, col: int) -> None:
        piv = self.rows[r][col]
        inv = 1 / piv
        self.rows[r] = [a * inv for a in self.rows[r]]
        self.rhs[r] *= inv
        for i in range(len(self.rows)):
            if i == r:
                continue
            factor = self.rows[i][col]
            if factor == 0:
                continue
            prow = self.rows[r]
            self.rows[i] = [a - factor * b for a, b in zip(self.rows[i], prow)]
            self.rhs[i] -= factor * self.rhs[r]
        self.basis[r] = col

    def run(self, cost: list[Fraction], limit: int) -> str:
        """Maximize cost.x from the current basic feasible point, entering
        only columns below ``limit`` (phase 2 locks the artificials out).

        Returns OPTIMAL, with the final reduced costs in ``self.reduced``,
        or UNBOUNDED.
        """
        z = list(cost)
        for r, b in enumerate(self.basis):
            cb = cost[b]
            if cb != 0:
                z = [a - cb * v for a, v in zip(z, self.rows[r])]
        while True:
            enter = next((j for j in range(limit) if z[j] > 0), None)
            if enter is None:
                self.reduced = z
                return OPTIMAL
            leave, best = None, None
            for r in range(len(self.rows)):
                a = self.rows[r][enter]
                if a > 0:
                    ratio = self.rhs[r] / a
                    if (
                        best is None
                        or ratio < best
                        or (ratio == best and self.basis[r] < self.basis[leave])
                    ):
                        best, leave = ratio, r
            if leave is None:
                return UNBOUNDED
            self.pivot(leave, enter)
            # refresh reduced costs for the changed basis
            factor = z[enter]
            if factor != 0:
                z = [a - factor * b for a, b in zip(z, self.rows[leave])]


def lp_solve(lp: LinearProgram) -> LpSolution:
    """Solve exactly; deterministic for a fixed program (Bland's rule)."""
    n = lp.objective.dimension
    one = Fraction(1)
    # equality standard form: one slack per inequality, rhs made nonnegative;
    # a slack that enters its row with +1 is the row's initial basic column
    nslack = sum(1 for _, relation, _ in lp.constraints if relation != EQUAL)
    nreal = n + nslack
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    basis: list[int] = []
    flipped: list[bool] = []
    s = 0
    for coefficients, relation, b in lp.constraints:
        full = list(coefficients) + [Fraction(0)] * nslack
        flip = b < 0
        basic = -1
        if relation != EQUAL:
            full[n + s] = one if relation == LESS_EQUAL else -one
            if (relation == LESS_EQUAL) != flip:
                basic = n + s
            s += 1
        flipped.append(flip)
        if flip:
            full = [-a for a in full]
            b = -b
        rows.append(full)
        rhs.append(b)
        basis.append(basic)

    # an artificial column for every other row; either way the basic column
    # is the row's unit column
    ncols = nreal
    for i in range(len(rows)):
        if basis[i] == -1:
            for r in rows:
                r.append(Fraction(0))
            rows[i][-1] = one
            basis[i] = ncols
            ncols += 1

    unit_cols = list(basis)
    tab = _Tableau(rows, rhs, basis)

    if ncols > nreal:
        # the artificial columns are those from nreal on; phase 1 keeps every
        # rhs nonnegative, so their sum is zero only when each basic one is
        cost1 = [Fraction(0)] * nreal + [Fraction(-1)] * (ncols - nreal)
        tab.run(cost1, ncols)
        if any(tab.rhs[r] for r, b in enumerate(tab.basis) if b >= nreal):
            return LpSolution(INFEASIBLE)
        # pivot leftover artificials out of the basis; drop redundant rows
        for r in range(len(tab.rows) - 1, -1, -1):
            if tab.basis[r] >= nreal:
                col = next((j for j in range(nreal) if tab.rows[r][j] != 0), None)
                if col is None:
                    del tab.rows[r], tab.rhs[r], tab.basis[r]
                else:
                    tab.pivot(r, col)

    cost2 = list(lp.objective) + [Fraction(0)] * (ncols - n)
    status = tab.run(cost2, nreal)
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED)

    x = [Fraction(0)] * ncols
    for r, b in enumerate(tab.basis):
        x[b] = tab.rhs[r]
    point = Vector(x[:n])
    value = lp.objective.dot(point)
    # the multipliers are pi = c_B B^-1; row i's unit column (its +1 slack or
    # its artificial) costs 0, so its reduced cost is -pi_i, also for a row
    # that phase 1 deleted as redundant.  A negated row gets its sign back.
    z = tab.reduced
    duals = tuple(z[col] if flip else -z[col] for col, flip in zip(unit_cols, flipped))
    return LpSolution(OPTIMAL, value, point, duals)


def lp_feasible(constraints, n: int) -> Vector | None:
    """A nonnegative feasible point of the system, or None (phase 1 only)."""
    lp = LinearProgram.build([Fraction(0)] * n, constraints)
    sol = lp_solve(lp)
    return sol.point if sol.is_optimal else None
