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
value, nature's mix, the whole optimal segment and the binding priors are
read off the lower envelope of one integer line per prior and checked on
those integers.  Against one or two priors, as for every credal set over
two states, there is none either: by minimax duality nature's mix is then
the one-dimensional side, and the same envelope over one line per
strategy gives the value, an optimal strategy and nature's mix.  Only three
or more strategies against three or more priors take the LP.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .beliefs import CredalSet, StateSpace
from .exactmath import (
    EQUAL,
    GREATER_EQUAL,
    LinearProgram,
    Polytope,
    Record,
    Vector,
    affine_image,
    cleared,
    dot,
    lp_solve,
    rat,
    row_reduce,
    solve_square_system,
)

# _face refuses an optimal face with more candidate vertices than this: each
# is one exact square system, and their count is known before any is solved.
# Single runs (CPython 3.11.7, shared 2-CPU x86-64 host) took 0.9 s for
# 22,100 systems of size 3 (a one-point face over 52 strategies, rows
# (2 + i/50, 0, 1 - i/50) and (0, 2 + i/50, 1 - i/50) against an eps = 1/4
# contamination of the uniform prior on three states), 4.5 s for 12,870 of
# size 8 and 35 s for 92,378 of size 9 (faces over 16 and 19 strategies whose
# equalities have rank 8 and 9), so the budget admits faces that finish
# within seconds.
MAX_FACE_CANDIDATES = 20_000


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
    # shifted so every gain is at least 1: the shifted value is then
    # positive, so its variable is nonnegative like the strategy's
    shift = 1 - min(min(g) for g in gains)
    constraints = []
    for g in gains:
        constraints.append(([x + shift for x in g] + [Fraction(-1)], GREATER_EQUAL, 0))
    constraints.append(([Fraction(1)] * k + [Fraction(0)], EQUAL, 1))
    sol = lp_solve(LinearProgram.build([Fraction(0)] * k + [Fraction(1)], constraints))
    if not sol.is_optimal:
        raise RuntimeError("simplex-constrained maxmin LP is not optimal")
    # a >= row's multiplier is <= 0 in a maximization
    return sol.value - shift, Vector(sol.point[:k]), [-y for y in sol.duals[: len(gains)]]


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
    *ints, scale = cleared([*itertools.chain(*gains), 1])
    lines = [(a, b - a) for a, b in zip(ints[::2], ints[1::2])]
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


def _solve(
    gains: list[Vector], k: int
) -> tuple[Fraction, tuple[Vector, ...], tuple[int, ...] | None]:
    """Value and sorted optimal-face vertices of max over the k-simplex of
    (min over the gain vectors), and the indices of the gains that hold the
    first vertex to the value when they come free with the face (k == 2),
    else None.

    A one-point simplex (k == 1) needs no LP: its value is the least gain.
    Two strategies take the value, nature's optimal mix y over the gains
    and the whole optimal segment from ``_envelope`` and check them on its
    integer lines: y is a distribution whose payoff ``G^T y`` peaks at the
    value, and both ends of the segment are strategies whose lowest line
    earns the value, so weak duality proves them optimal.  The lines that
    earn it at the segment's upper end, the first vertex, are its binding
    gains.  Fractions are built only for the value and the segment's one or
    two vertices.

    More strategies against one or two gains g0, g1 (one gain stands for
    both) solve the transposed problem: by minimax duality the value is
    also the least, over nature's mixes (1 - t, t), of the best payoff
    ``max_i g0_i + t (g1_i - g0_i)``, so ``_envelope`` over one negated line
    per strategy gives minus the value, an optimal strategy as its integer
    mix over the lines and y at the lower end of its optimal segment.  More
    strategies against more gains take the value, a point and y from the
    value LP, whose dual is y.  Either way they pass the same check: y is a
    distribution whose payoff peaks at the value, and the point is a
    strategy whose least gain is the value.  The value is unique, and
    complementary slackness holds for every optimal y, so every optimal
    strategy s satisfies y's equalities: ``g_j . s = v`` where ``y_j > 0``,
    and ``s_i = 0`` where ``(G^T y)_i < v``.  When they pin s down, the
    point is the whole face.  Otherwise each vertex of the face is 0 off
    the support, the t strategies with ``(G^T y)_i = v``, and is a basic
    solution there: the equalities' row basis and s tight inequalities
    solved on r + s support columns, where r is the basis's rank.
    """
    if k == 1:
        return min(g[0] for g in gains), (Vector([1]),), None
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
        p, q = hi
        binding = tuple(i for i, (a, d) in enumerate(lines) if (a * q + p * d) * den == num * q)
        return value, tuple(Vector([Fraction(q - p, q), Fraction(p, q)]) for p, q in ends), binding
    solve = _transposed if len(gains) <= 2 else _value_lp
    return (*_face(gains, k, *solve(gains, k)), None)


def _transposed(gains: list[Vector], k: int) -> tuple[Fraction, Vector, list[Fraction]]:
    """Value, an optimal strategy and nature's mix against one or two gains
    (one gain stands for both), from the envelope of one line per strategy."""
    # negating the lines turns nature's least upper envelope into the
    # peak of a lower one, whose mix over the lines is a strategy
    scale, _, (num, den), weights, ((p, q), _) = _envelope(
        [(-a, -b) for a, b in zip(gains[0], gains[-1])]
    )
    value = Fraction(-num, den * scale)
    point = Vector(Fraction(weights.get(i, 0), den) for i in range(k))
    mix = [Fraction(q - p, q), Fraction(p, q)] if len(gains) == 2 else [Fraction(1)]
    return value, point, mix


def _face(gains: list[Vector], k: int, value: Fraction, point: Vector, mix: list) -> tuple:
    """The value and the sorted optimal face, once the value, an optimal
    point and nature's mix y pass their certificate check."""
    payoff = [dot(mix, column) for column in zip(*gains)]
    if (
        any(y < 0 for y in mix)
        or sum(mix) != 1
        or max(payoff) != value
        or not point.is_probability()
        or min(dot(g, point) for g in gains) != value
    ):
        raise RuntimeError(f"maxmin solution fails its certificate at value {value}")

    # every optimal strategy is 0 off the support, the strategies paying the
    # value against y, and meets the equalities there; the other gains are
    # inequalities on the face, save those paying at least the value on
    # every support strategy, which hold on the whole simplex
    support = [i for i in range(k) if payoff[i] == value]
    t = len(support)
    rows = [([g[i] for i in support], y) for y, g in zip(mix, gains)]
    equalities = [([Fraction(1)] * t, Fraction(1))] + [(row, value) for row, y in rows if y > 0]
    inequalities = [row for row, y in rows if y == 0 and min(row) < value]
    basis, rhs = row_reduce(*zip(*equalities))
    r = len(basis)
    if r == t:
        return value, (point,)

    # each vertex is a basic solution (Chvatal 1983, ch. 3): for some s tight
    # inequalities it solves the (r + s) x (r + s) system of them and the
    # basis on r + s support columns, and is 0 on the others; summed over s,
    # comb(m, s) comb(t, r + s) is comb(m + t, t - r) for m inequalities
    count = math.comb(len(inequalities) + t, t - r)
    if count > MAX_FACE_CANDIDATES:
        raise ValueError(f"the optimal face over {k} strategies has {count} candidate "
                         f"vertices; enumerating them stops at {MAX_FACE_CANDIDATES}")
    corners = set()
    for s in range(min(len(inequalities), t - r) + 1):
        for tight in itertools.combinations(inequalities, s):
            for columns in itertools.combinations(range(t), r + s):
                square = [[a[j] for j in columns] for a in basis + list(tight)]
                x = solve_square_system(square, rhs + [value] * s)
                if x is not None and min(x) >= 0:
                    lifted = [Fraction(0)] * k
                    for j, xj in zip(columns, x):
                        lifted[support[j]] = xj
                    if all(dot(g, lifted) >= value for g in gains):
                        corners.add(tuple(lifted))
    return value, tuple(Vector(p) for p in sorted(corners))


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
    vertices = p.beliefs.vertices
    gains = [p.action_values(v) for v in vertices]
    value, face, binding = _solve(gains, p.strategy_dimension)
    if binding is None:
        return MaxminSolution(value, Polytope(face), _binding(p, gains, face[0], value))
    return MaxminSolution(value, Polytope(face), tuple(vertices[i] for i in binding))


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
    # the weight face's binding gains need not hold the image's first vertex
    value, weight_face, _ = _solve(lifted, m)
    # the map's column i is the restriction's vertex i
    face = affine_image(Polytope(weight_face), list(zip(*restriction.vertices)))
    return MaxminSolution(value, face, _binding(p, gains, face.vertices[0], value))
