"""Maxmin expected-utility optimization over credal sets.

A decision problem pairs a payoff matrix (pure action x state) with a credal
set of priors.  Expected payoff is linear in the prior, so the inner minimum
over the whole set equals the minimum over its extreme points; the outer
maximization then becomes a small exact LP.  The LP's dual is nature's
optimal mix over the priors; checked exactly, it certifies the value and
names the constraints tight on every optimal strategy.  Usually these fix
the optimal strategy outright; when they leave a face of positive
dimension, its vertices are found inside that face only.  With two
strategies, as for every player in the paper's games, there is no LP: the
value, nature's mix and the whole optimal segment are read off the lower
envelope of one integer line per prior and checked on those integers.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm

from .beliefs import CredalSet, StateSpace
from .exactmath import (
    EQUAL,
    GREATER_EQUAL,
    LinearProgram,
    Polytope,
    Record,
    Vector,
    affine_image,
    dot,
    lp_solve,
    rat,
    row_reduce,
    solve_square_system,
    unit_vector,
)

# _solve rejects an optimal face whose equalities leave more free coordinates
# than this (at least k minus their count, known before the row reduction):
# with f free coordinates every candidate vertex solves an f x f system.  On
# all-tied one-prior problems (bound k - 2) _solve took 0.08 s at k = 16,
# 0.74 s at k = 32 and 6.5 s at k = 64 (CPython 3.11.7, shared 2-CPU x86-64
# host), growing as k**3, so the cap admits those that finish within seconds.
MAX_FREE_COORDINATES = 64


class DecisionProblem(Record):
    """Maximize, over the strategy simplex, the worst expected payoff."""

    __slots__ = ("space", "payoff", "beliefs")

    def __init__(self, space: StateSpace, payoff: tuple[tuple[Fraction, ...], ...], beliefs: CredalSet):
        for row in payoff:
            if len(row) != len(space):
                raise ValueError("one payoff column per state is required")
        if beliefs.space != space:
            raise ValueError("beliefs must live on the problem's state space")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "payoff", payoff)
        object.__setattr__(self, "beliefs", beliefs)

    @classmethod
    def build(cls, payoff_rows, space: StateSpace, beliefs: CredalSet) -> "DecisionProblem":
        rows = tuple(tuple(rat(x) for x in row) for row in payoff_rows)
        return cls(space, rows, beliefs)

    @property
    def strategy_dimension(self) -> int:
        return len(self.payoff)

    def action_values(self, prior: Vector) -> Vector:
        """Expected payoff of each pure action under one prior."""
        return Vector(dot(row, prior) for row in self.payoff)


class MaxminSolution(Record):
    __slots__ = ("value", "optimal_face", "binding_vertices")

    def __init__(self, value: Fraction, optimal_face: Polytope, binding_vertices: tuple[Vector, ...]):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "optimal_face", optimal_face)
        object.__setattr__(self, "binding_vertices", binding_vertices)

    @property
    def strategy(self) -> Vector:
        """The lexicographically smallest face vertex, for reproducible reports."""
        return self.optimal_face.vertices[0]

    def to_json(self) -> dict:
        return {
            "value": str(self.value),
            "strategy": self.strategy.to_json(),
            "optimal_face": self.optimal_face.to_json(),
            "binding_vertices": [v.to_json() for v in self.binding_vertices],
        }


def _simplex_check(strategy: Vector, dimension: int) -> None:
    if strategy.dimension != dimension:
        raise ValueError(
            f"strategy has {strategy.dimension} coordinates, problem wants {dimension}"
        )
    if not strategy.is_probability():
        raise ValueError(f"strategy {strategy} is not in the simplex")


def maxmin_value_of(strategy: Vector, p: DecisionProblem) -> Fraction:
    """Worst expected payoff of one strategy over the belief vertices."""
    _simplex_check(strategy, p.strategy_dimension)
    return min(strategy.dot(p.action_values(v)) for v in p.beliefs.vertices)


def _value_lp(gains: list[Vector], k: int) -> tuple[Fraction, Vector, list[Fraction]]:
    """Value, an optimal strategy and nature's mix from the value LP."""
    constraints = []
    for g in gains:
        constraints.append((list(g) + [Fraction(-1)], GREATER_EQUAL, 0))
    constraints.append(([Fraction(1)] * k + [Fraction(0)], EQUAL, 1))
    # the strategy is nonnegative, the value variable free
    sol = lp_solve(LinearProgram.build([Fraction(0)] * k + [Fraction(1)], constraints, [k]))
    if not sol.is_optimal:
        raise RuntimeError("simplex-constrained maxmin LP is not optimal")
    # a >= row's multiplier is <= 0 in a maximization
    return sol.value, Vector(sol.point[:k]), [-y for y in sol.duals[: len(gains)]]


def _envelope(gains: list[Vector]) -> tuple:
    """Integer lines, value, nature's mix and optimal segment, two strategies.

    Strategy (1 - t, t) earns ``g_0 + t (g_1 - g_0)`` against gain g;
    scaled by the lcm of the gains' denominators, that is an integer line
    ``a + t d``.  The value is the peak of their lower envelope over
    [0, 1], kept as an integer ratio ``num / den``.  By LP duality it is the
    least, over mixes y of the lines, of ``max((G^T y)_0, (G^T y)_1)``,
    which is convex and piecewise linear, so its minimum lies at a vertex of
    one of its two pieces: a single line, worth ``max(a, a + d)``, or the
    crossing of a rising line i with a falling line j, at height
    ``(a_j d_i - a_i d_j) / (d_i - d_j)`` with weights ``-d_j`` on i and
    ``d_i`` on j over ``d_i - d_j``.  Candidates are compared by
    cross-multiplication.  Every line is at or above the value v exactly on
    the optimal segment: from ``lo``, the greatest of 0 and ``(v - a) / d``
    over rising lines, to ``hi``, the least of 1 and ``(v - a) / d`` over
    falling lines.

    Returns the scale, the lines ``(a, d)``, the value ``(num, den)`` on
    that scale, the mix as integer weights over ``den`` keyed by gain index,
    and ``(lo, hi)`` as ratios ``(p, q)`` with ``q > 0``.
    """
    scale = lcm(*(x.denominator for g in gains for x in g))
    lines = []
    for g0, g1 in gains:
        a = g0.numerator * (scale // g0.denominator)
        lines.append((a, g1.numerator * (scale // g1.denominator) - a))
    num, best = min((max(a, a + d), i) for i, (a, d) in enumerate(lines))
    den, mix = 1, {best: 1}
    rising = [(i, a, d) for i, (a, d) in enumerate(lines) if d > 0]
    falling = [(j, a, d) for j, (a, d) in enumerate(lines) if d < 0]
    for i, ai, di in rising:
        for j, aj, dj in falling:
            if (aj * di - ai * dj) * den < num * (di - dj):
                num, den, mix = aj * di - ai * dj, di - dj, {i: -dj, j: di}
    # (v - a) / d is (num - a den) / (d den)
    lo, hi = (0, 1), (1, 1)
    for _, a, d in rising:
        if (num - a * den) * lo[1] > lo[0] * d * den:
            lo = (num - a * den, d * den)
    for _, a, d in falling:
        if (a * den - num) * hi[1] < hi[0] * -d * den:
            hi = (a * den - num, -d * den)
    return scale, lines, (num, den), mix, (lo, hi)


def _solve(gains: list[Vector], k: int) -> tuple[Fraction, tuple[Vector, ...]]:
    """Value and sorted optimal-face vertices of max over the k-simplex of
    (min over the gain vectors).

    A one-point simplex (k == 1) needs no LP: its value is the least gain.
    Two strategies take the value, nature's optimal mix y over the gains
    and the whole optimal segment from ``_envelope`` and check them on its
    integer lines: y is a distribution whose payoff ``G^T y`` peaks at the
    value, and both ends of the segment are strategies whose lowest line
    earns the value, so weak duality proves them optimal.  Fractions are
    built only for the value and the segment's one or two vertices.

    More strategies take the value, a point and y from the value LP, whose
    dual is y, and pass the same check.  The value is unique, and
    complementary slackness holds for every optimal y, so every optimal
    strategy s satisfies y's equalities: ``g_j . s = v`` where ``y_j > 0``,
    and ``s_i = 0`` where ``(G^T y)_i < v``.  When they pin s down, the
    point is the whole face.  Otherwise the face is parametrized over the
    solutions of those equalities, and its vertices come from the square
    systems of the remaining inequalities in the reduced coordinates.
    """
    if k == 1:
        return min(g[0] for g in gains), (Vector([1]),)
    if k == 2:
        scale, lines, (num, den), mix, (lo, hi) = _envelope(gains)
        value = Fraction(num, den * scale)
        # against strategy t, nature's mix earns (a_mix + t d_mix) / den
        a_mix, d_mix = (sum(y * lines[i][c] for i, y in mix.items()) for c in (0, 1))
        if (
            min(mix.values()) < 0
            or sum(mix.values()) != den
            or max(a_mix, a_mix + d_mix) != num
            or lo[0] * hi[1] > hi[0] * lo[1]
            or not all(
                0 <= p <= q and min(a * q + p * d for a, d in lines) * den == num * q
                for p, q in (lo, hi)
            )
        ):
            raise RuntimeError(f"maxmin solution fails its certificate at value {value}")
        ends = (hi,) if lo[0] * hi[1] == hi[0] * lo[1] else (hi, lo)
        return value, tuple(Vector([Fraction(q - p, q), Fraction(p, q)]) for p, q in ends)
    value, point, mix = _value_lp(gains, k)
    payoff = [dot(mix, column) for column in zip(*gains)]
    if (
        any(y < 0 for y in mix)
        or sum(mix) != 1
        or max(payoff) != value
        or not point.is_probability()
        or min(dot(g, point) for g in gains) != value
    ):
        raise RuntimeError(f"maxmin solution fails its certificate at value {value}")

    # the equalities' right-hand sides are not needed: the face runs from
    # the optimal point along their null space
    equalities = [[Fraction(1)] * k]
    inequalities = []
    for y, g in zip(mix, gains):
        if y > 0:
            equalities.append(list(g))
        else:
            inequalities.append((list(g), value))
    for i in range(k):
        unit = list(unit_vector(k, i))
        if payoff[i] < value:
            equalities.append(unit)
        else:
            inequalities.append((unit, Fraction(0)))
    # each equality removes at most one free coordinate
    if k - len(equalities) > MAX_FREE_COORDINATES:
        raise ValueError(
            f"the optimal face over {k} strategies has at least {k - len(equalities)} "
            f"free coordinates; enumerating its vertices stops at {MAX_FREE_COORDINATES}"
        )
    basis, _ = row_reduce(equalities, [Fraction(0)] * len(equalities))
    pivots = [next(j for j, c in enumerate(row) if c != 0) for row in basis]
    free = [j for j in range(k) if j not in pivots]
    if not free:
        return value, (point,)

    # the face is {point + D z : every reduced inequality holds}, where D's
    # columns span the solutions of the homogeneous equalities
    directions = []
    for q in free:
        d = list(unit_vector(k, q))
        for row, p in zip(basis, pivots):
            d[p] = -row[q]
        directions.append(d)
    reduced = [
        ([dot(a, d) for d in directions], b - dot(a, point))
        for a, b in inequalities
    ]
    corners = set()
    for combo in itertools.combinations(reduced, len(free)):
        z = solve_square_system([c for c, _ in combo], [r for _, r in combo])
        if z is not None and all(dot(c, z) >= r for c, r in reduced):
            corners.add(tuple(z))
    face = {
        tuple(x + dot(z, col) for x, col in zip(point, zip(*directions)))
        for z in corners
    }
    return value, tuple(Vector(p) for p in sorted(face))


def _binding(
    p: DecisionProblem, gains: list[Vector], strategy: Vector, value: Fraction
) -> tuple[Vector, ...]:
    """The belief vertices whose gains (one per vertex, in order) hold the
    strategy to the value."""
    return tuple(v for v, g in zip(p.beliefs.vertices, gains) if strategy.dot(g) == value)


def maxmin_solve(p: DecisionProblem) -> MaxminSolution:
    """Exact maxmin value, its full argmax face, and the binding priors.

    The reported strategy is the lexicographically smallest vertex of the
    face, making results reproducible.
    """
    gains = [p.action_values(v) for v in p.beliefs.vertices]
    value, face = _solve(gains, p.strategy_dimension)
    return MaxminSolution(value, Polytope(face), _binding(p, gains, face[0], value))


def constrained_maxmin(p: DecisionProblem, restriction: Polytope) -> MaxminSolution:
    """maxmin_solve with strategies confined to a sub-polytope of the simplex.

    Strategies are reparametrized as convex weights over the restriction's
    vertices; the optimal weight face maps back onto the strategy face.
    """
    if restriction.ambient_dimension != p.strategy_dimension:
        raise ValueError("restriction must live in the strategy simplex")
    for r in restriction.vertices:
        _simplex_check(r, p.strategy_dimension)
    gains = [p.action_values(v) for v in p.beliefs.vertices]
    m = len(restriction.vertices)
    lifted = [Vector(r.dot(g) for r in restriction.vertices) for g in gains]
    value, weight_face = _solve(lifted, m)
    # the map's column i is the restriction's vertex i
    face = affine_image(Polytope(weight_face), list(zip(*restriction.vertices)))
    return MaxminSolution(value, face, _binding(p, gains, face.vertices[0], value))
