"""Exact oracles that share no code with ``credalgames``: sympy's rational
simplex, ``sympy.solvers.simplex.linprog``.

The library's closed forms, integer eliminations and its own simplex
(``exactmath/linprog.py``) are checked against these, so a wrong kernel
cannot move its oracle with it.  Import this module only after
``pytest.importorskip("sympy")``.

Every program here has nonnegative variables and rows ``A x <= b`` with
``b >= 0``, so the origin is feasible and no first phase runs: sympy's
simplex raised "Oscillating system" on some maxmins with a free value
variable, and ran for minutes on small membership LPs with equality rows.
"""

from __future__ import annotations

from fractions import Fraction

from sympy import Matrix, Rational
from sympy.solvers.simplex import linprog


def _sym(x) -> Rational:
    x = Fraction(x)
    return Rational(x.numerator, x.denominator)


def _minimum(cost, rows, rhs) -> Fraction:
    value, _ = linprog(Matrix([cost]), Matrix(rows), Matrix(rhs))
    return Fraction(int(value.p), int(value.q))


def maxmin_value(gains, k: int) -> Fraction:
    """max over strategies s in the k-simplex of min over gains g of g . s.

    The gains are shifted by 1 - b, for the least gain entry b, so every
    entry is at least 1.  Then the value is a nonnegative w with
    ``w <= (g + 1 - b) . s`` for every g, over s >= 0 with total at most
    1, whose optimum totals 1; shifting w back gives the value.
    """
    shift = 1 - min(min(g) for g in gains)
    rows = [[-_sym(c + shift) for c in g] + [1] for g in gains]
    rows.append([1] * k + [0])
    return -_minimum([0] * k + [-1], rows, [0] * len(gains) + [1]) - shift


def in_hull(points, x) -> bool:
    """x is a convex combination of the points.

    Otherwise some a strictly separates them: ``a . (y - x) < 0`` for
    every point y.  The LP maximizes a margin t in [0, 1] with
    ``a . (y - x) + t <= 0``, a = p - n and p, n in the unit box; x lies
    in the hull exactly when the margin is 0.
    """
    if not points:
        return False
    dim = len(x)
    diffs = [[_sym(Fraction(c) - Fraction(v)) for c, v in zip(y, x)] for y in points]
    rows = [d + [-c for c in d] + [1] for d in diffs]
    rows += [[int(i == j) for j in range(2 * dim + 1)] for i in range(2 * dim + 1)]
    rhs = [0] * len(points) + [1] * (2 * dim + 1)
    return _minimum([0] * (2 * dim) + [-1], rows, rhs) == 0


def extreme_points(points) -> list:
    """The distinct points outside the hull of the others, sorted."""
    distinct = sorted(set(points))
    return [p for p in distinct if not in_hull([q for q in distinct if q != p], p)]
