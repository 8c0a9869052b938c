"""Exact-rational linear programming.

A two-phase tableau simplex over ``Fraction`` with Bland's pivoting rule:
every number is exact, and the fixed rule makes the returned optimum
deterministic for a given program.  The tableau is one dense matrix: row 0
holds the reduced costs, every constraint row ends with its right-hand
side, and a pivot is one elimination over all rows.  The programs here are
small (rect-hull's value LPs reach 17 rows), so the matrix stays dense.

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
    """A dense simplex tableau over Fractions, one matrix, with Bland's rule.

    Row 0 holds the reduced costs of the objective being maximized, and
    constraint row i (i >= 1) ends with its right-hand side, so row 0's last
    entry is minus the objective's value; ``basis[i - 1]`` is row i's basic
    column.
    """

    def __init__(self, rows: list[list[Fraction]], basis: list[int]):
        self.rows = rows
        self.basis = basis

    def price(self, cost: list[Fraction]) -> None:
        """Make row 0 the reduced costs of ``cost`` on the current basis."""
        z = cost
        for row, b in zip(self.rows[1:], self.basis):
            if cost[b] != 0:
                z = [a - cost[b] * v for a, v in zip(z, row)]
        self.rows[0] = z

    def pivot(self, r: int, col: int) -> None:
        inv = 1 / self.rows[r][col]
        prow = self.rows[r] = [a * inv for a in self.rows[r]]
        for i, row in enumerate(self.rows):
            factor = row[col]
            if i != r and factor != 0:
                self.rows[i] = [a - factor * b for a, b in zip(row, prow)]
        self.basis[r - 1] = col

    def run(self, limit: int) -> str:
        """Maximize row 0's objective from the current basic feasible point,
        entering only columns below ``limit``: OPTIMAL or UNBOUNDED."""
        while True:
            z = self.rows[0]
            enter = next((j for j in range(limit) if z[j] > 0), None)
            if enter is None:
                return OPTIMAL
            # least ratio, ties to the least basic column
            leave = min(
                (
                    (row[-1] / row[enter], b, r)
                    for r, (row, b) in enumerate(zip(self.rows[1:], self.basis), 1)
                    if row[enter] > 0
                ),
                default=None,
            )
            if leave is None:
                return UNBOUNDED
            self.pivot(leave[2], enter)


def lp_solve(lp: LinearProgram) -> LpSolution:
    """Solve exactly; deterministic for a fixed program (Bland's rule)."""
    n = lp.objective.dimension
    zero, one = Fraction(0), Fraction(1)
    # equality standard form, every rhs made nonnegative by a row sign: one
    # slack per inequality, and an artificial for each row whose slack does
    # not enter it with +1 (such a slack is the row's initial basic column)
    slacks = [
        (-1 if b < 0 else 1) * {LESS_EQUAL: 1, EQUAL: 0, GREATER_EQUAL: -1}[relation]
        for _, relation, b in lp.constraints
    ]
    nreal = n + sum(1 for s in slacks if s)
    ncols = nreal + sum(1 for s in slacks if s != 1)
    rows: list[list[Fraction]] = [[]]  # row 0 is priced per phase
    basis: list[int] = []
    slack, artificial = n, nreal
    for (coefficients, _, b), s in zip(lp.constraints, slacks):
        row = [*coefficients, *[zero] * (ncols - n), b]
        if b < 0:
            row = [-a for a in row]
        if s:
            row[slack] = Fraction(s)
            slack += 1
        if s == 1:
            basis.append(slack - 1)
        else:
            row[artificial] = one
            basis.append(artificial)
            artificial += 1
        rows.append(row)

    unit_cols = list(basis)
    tab = _Tableau(rows, basis)

    if ncols > nreal:
        # phase 1 maximizes minus the artificials' sum; every rhs stays
        # nonnegative, so the sum is zero only when each basic one is
        tab.price([zero] * nreal + [-one] * (ncols - nreal) + [zero])
        tab.run(ncols)
        if rows[0][-1]:
            return LpSolution(INFEASIBLE)
        # pivot leftover artificials out of the basis; drop redundant rows
        for r in range(len(basis), 0, -1):
            if basis[r - 1] >= nreal:
                col = next((j for j in range(nreal) if rows[r][j] != 0), None)
                if col is None:
                    del rows[r], basis[r - 1]
                else:
                    tab.pivot(r, col)

    tab.price([*lp.objective, *[zero] * (ncols + 1 - n)])
    if tab.run(nreal) == UNBOUNDED:
        return LpSolution(UNBOUNDED)

    x = [zero] * ncols
    for row, b in zip(rows[1:], basis):
        x[b] = row[-1]
    # the multipliers are pi = c_B B^-1; row i's unit column (its +1 slack
    # or its artificial) costs 0, so its reduced cost is -pi_i, also for a
    # row that phase 1 deleted as redundant.  A negated row gets its sign
    # back.
    z = rows[0]
    duals = tuple(
        z[col] if b < 0 else -z[col] for col, (_, _, b) in zip(unit_cols, lp.constraints)
    )
    return LpSolution(OPTIMAL, -z[-1], Vector(x[:n]), duals)


def lp_feasible(constraints, n: int) -> Vector | None:
    """A nonnegative feasible point of the system, or None (phase 1 only)."""
    lp = LinearProgram.build([Fraction(0)] * n, constraints)
    sol = lp_solve(lp)
    return sol.point if sol.is_optimal else None
