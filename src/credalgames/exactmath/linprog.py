"""Exact-rational linear programming.

A two-phase tableau simplex over ``Fraction`` with Bland's pivoting rule:
every number is exact, and the fixed rule makes the returned optimum
deterministic for a given program.  Problem sizes in this library are tiny
(a handful of variables and rows), so clarity wins over sparse tricks.

Every variable is nonnegative unless listed in ``LinearProgram.free``.  An
optimal solution also carries ``duals``, one multiplier per entry of
``LinearProgram.constraints``, read off the final tableau.  They are shadow
prices of the maximization: ``y >= 0`` on ``<=`` rows, ``y <= 0`` on ``>=``
rows, free on ``==`` rows.  They always form an optimal dual solution:
``(A^T y)_j >= c_j`` on nonnegative variables, ``(A^T y)_j = c_j`` on free
ones, and ``b . y`` equals the optimal value.
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


class Constraint(Record):
    __slots__ = ("coefficients", "relation", "rhs")

    def __init__(self, coefficients: Vector, relation: str, rhs: Fraction):
        if relation not in (LESS_EQUAL, EQUAL, GREATER_EQUAL):
            raise ValueError(f"unknown relation {relation!r}")
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "rhs", rhs)


class LinearProgram(Record):
    """Maximize ``objective . x`` subject to linear constraints.

    Every variable is nonnegative except those whose indexes are in
    ``free``.
    """

    __slots__ = ("objective", "constraints", "free")

    def __init__(
        self, objective: Vector, constraints: tuple[Constraint, ...], free: frozenset[int] = frozenset()
    ):
        n = objective.dimension
        for c in constraints:
            if c.coefficients.dimension != n:
                raise DimensionMismatchError(
                    f"constraint has {c.coefficients.dimension} coefficients, expected {n}"
                )
        if not all(0 <= j < n for j in free):
            raise DimensionMismatchError(f"free variable index outside 0..{n - 1}")
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "constraints", constraints)
        object.__setattr__(self, "free", free)

    @classmethod
    def build(cls, objective, constraints, free=()) -> "LinearProgram":
        obj = objective if isinstance(objective, Vector) else Vector(objective)
        rows = []
        for coeffs, rel, rhs in constraints:
            vec = coeffs if isinstance(coeffs, Vector) else Vector(coeffs)
            rows.append(Constraint(vec, rel, rat(rhs)))
        return cls(obj, tuple(rows), frozenset(free))


class LpSolution(Record):
    __slots__ = ("status", "value", "point", "duals")

    def __init__(
        self, status: str, value: Fraction | None = None, point: Vector | None = None,
        duals: tuple[Fraction, ...] | None = None,  # one per constraint when optimal
    ):
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "duals", duals)

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL


class _Tableau:
    """Dense simplex tableau over Fractions with Bland's rule."""

    def __init__(self, rows: list[list[Fraction]], rhs: list[Fraction], basis: list[int]):
        self.rows = rows
        self.rhs = rhs
        self.basis = basis
        self.ncols = len(rows[0]) if rows else 0

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

    def run(self, cost: list[Fraction], allowed: list[bool]) -> str:
        """Maximize cost.x from the current basic feasible point.

        Returns OPTIMAL or UNBOUNDED.  ``allowed`` masks columns that may
        enter (used to lock artificial columns out of phase 2).
        """
        # reduced costs relative to the current basis
        z = list(cost)
        for r, b in enumerate(self.basis):
            cb = cost[b]
            if cb != 0:
                z = [a - cb * v for a, v in zip(z, self.rows[r])]
        while True:
            enter = next(
                (j for j in range(self.ncols) if allowed[j] and z[j] > 0), None
            )
            if enter is None:
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
    # a free variable becomes the difference of two nonnegative columns
    split = [j in lp.free for j in range(lp.objective.dimension)]
    ny = len(split) + sum(split)
    one = Fraction(1)

    def to_y(coeffs) -> list[Fraction]:
        """Rewrite a row over x as a row over the nonnegative columns."""
        row = []
        for c, free in zip(coeffs, split):
            row.append(c)
            if free:
                row.append(-c)
        return row

    # equality standard form: one slack per inequality, rhs made nonnegative
    nslack = sum(1 for con in lp.constraints if con.relation != EQUAL)
    ncols = ny + nslack
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    slack_sign: list[Fraction | None] = []
    flipped: list[bool] = []
    s = 0
    for con in lp.constraints:
        full = to_y(con.coefficients) + [Fraction(0)] * nslack
        b = con.rhs
        sign = None
        if con.relation != EQUAL:
            sign = one if con.relation == LESS_EQUAL else -one
            full[ny + s] = sign
            s += 1
        flipped.append(b < 0)
        if b < 0:
            full = [-a for a in full]
            b = -b
            sign = None if sign is None else -sign
        rows.append(full)
        rhs.append(b)
        slack_sign.append(sign)

    # initial basis: slacks where they enter with +1, artificials elsewhere;
    # either way the basic column is the row's unit column
    basis = [-1] * len(rows)
    art_cols: list[int] = []
    for i, sign in enumerate(slack_sign):
        if sign == one:
            col = next(j for j in range(ny, ncols) if rows[i][j] == one)
            basis[i] = col
    for i in range(len(rows)):
        if basis[i] == -1:
            for r in rows:
                r.append(Fraction(0))
            rows[i][-1] = one
            basis[i] = ncols
            art_cols.append(ncols)
            ncols += 1

    unit_cols = list(basis)
    tab = _Tableau(rows, rhs, basis)
    tab.ncols = ncols

    if art_cols:
        cost1 = [Fraction(0)] * ncols
        for j in art_cols:
            cost1[j] = Fraction(-1)
        tab.run(cost1, [True] * ncols)
        infeas = sum(
            (tab.rhs[r] for r, b in enumerate(tab.basis) if b in set(art_cols)),
            Fraction(0),
        )
        if infeas != 0:
            return LpSolution(INFEASIBLE)
        # pivot leftover artificials out of the basis; drop redundant rows
        art_set = set(art_cols)
        for r in range(len(tab.rows) - 1, -1, -1):
            if tab.basis[r] in art_set:
                col = next(
                    (j for j in range(ny + nslack) if tab.rows[r][j] != 0), None
                )
                if col is None:
                    del tab.rows[r], tab.rhs[r], tab.basis[r]
                else:
                    tab.pivot(r, col)

    cost2 = to_y(lp.objective) + [Fraction(0)] * (ncols - ny)
    allowed = [j < ny + nslack for j in range(ncols)]
    status = tab.run(cost2, allowed)
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED)

    y = [Fraction(0)] * ncols
    for r, b in enumerate(tab.basis):
        y[b] = tab.rhs[r]
    entries, col = [], 0
    for free in split:
        entries.append(y[col] - y[col + 1] if free else y[col])
        col += 1 + free
    point = Vector(entries)
    value = lp.objective.dot(point)
    duals = _duals(tab, cost2, unit_cols, flipped, len(lp.constraints))
    return LpSolution(OPTIMAL, value, point, duals)


def _duals(
    tab: _Tableau, cost: list[Fraction], unit_cols: list[int], flipped: list[bool], count: int
) -> tuple[Fraction, ...]:
    """Multipliers of the first ``count`` rows from the optimal tableau.

    The simplex multipliers are ``pi = c_B B^-1``.  Row i's unit column
    (its +1 slack or its artificial) has zero cost, so its reduced cost is
    ``-pi_i`` and ``pi_i`` is the basic costs dotted with that column.  Phase
    1 may delete redundant rows; the remaining rows still give every column's
    reduced cost, so the formula holds for the deleted rows too.  A row whose
    right-hand side was negated for the tableau gets its sign back.
    """
    basic = [(r, cost[b]) for r, b in enumerate(tab.basis) if cost[b] != 0]
    duals = []
    for i in range(count):
        col = unit_cols[i]
        pi = sum((c * tab.rows[r][col] for r, c in basic), Fraction(0))
        duals.append(-pi if flipped[i] else pi)
    return tuple(duals)


def lp_feasible(constraints, n: int) -> Vector | None:
    """A nonnegative feasible point of the system, or None (phase 1 only)."""
    lp = LinearProgram.build([Fraction(0)] * n, constraints)
    sol = lp_solve(lp)
    return sol.point if sol.is_optimal else None
