"""Every maxmin branch and every minimize decider against sympy's exact simplex.

``maxmin._solve`` has four ways to a value: the k = 1 closed form, the
two-strategy envelope, the transposed envelope against one or two gains,
and the value LP.  ``polytope_minimize`` has three deciders: affinely
independent points are all extreme, ``_planar_extremes`` handles hulls of
dimension 2 or less, and ``_pairwise_extremes`` tests each point against
the rest.  Each drawn problem goes through every branch that applies, not
only the one the library picks, and each must agree with the oracle and
with the others exactly.
"""

from fractions import Fraction

import pytest

from credalgames.exactmath import Polytope, Vector, dot, row_reduce
from credalgames.exactmath.polytope import (
    _pairwise_extremes,
    _planar_extremes,
    polytope_minimize,
)
from credalgames.maxmin import _face, _solve, _transposed, _value_lp

F = Fraction

pytest.importorskip("sympy")
from exact_oracle import extreme_points, maxmin_value  # noqa: E402
from test_maxmin import oracle_face  # noqa: E402


def _maxmin_cases(st):
    """k in 1..6 strategies against 1..6 priors over 2..5 states, as the
    gains ``payoff . prior`` that ``_solve`` takes.

    Payoffs in -3..3 make ties, dominated strategies and faces of positive
    dimension frequent; each prior is small integer weights over their sum,
    and priors may repeat.
    """

    @st.composite
    def case(draw):
        k, m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(2, 5))
        row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
        rows = draw(st.lists(row, min_size=k, max_size=k))
        weights = st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any)
        drawn = draw(st.lists(weights, min_size=m, max_size=m))
        priors = [[F(w, sum(ws)) for w in ws] for ws in drawn]
        return k, [Vector(dot(r, p) for r in rows) for p in priors]

    return case()


def _binding(gains, face, value):
    return tuple(i for i, g in enumerate(gains) if dot(g, face[0]) == value)


def _face_cases(gains, k, value, face):
    """Check a face beyond a point against the brute-force face oracle and
    name what the value LP's face enumeration meets on the way to it: a
    gain outside nature's mix that pays at least the value on every
    support strategy, which it drops, and a vertex whose positive
    coordinates carry linearly dependent columns of the equalities, so it
    is found only with a tight gain among its rows."""
    assert face == oracle_face(gains, value, k)
    _, _, mix = _value_lp(gains, k)
    payoff = [dot(mix, column) for column in zip(*gains)]
    support = [i for i in range(k) if payoff[i] == value]
    cases = set()
    if any(y == 0 and min(g[i] for i in support) >= value for y, g in zip(mix, gains)):
        cases.add("a gain row dropped as non-binding")
    for vertex in face:
        positive = [i for i in range(k) if vertex[i]]
        rows = [[F(1)] * len(positive)]
        rows += [[g[i] for i in positive] for y, g in zip(mix, gains) if y]
        if len(row_reduce(rows, [0] * len(rows))[0]) < len(positive):
            cases.add("a face vertex with a tight gain inequality (s >= 1)")
    return cases


def test_every_solve_branch_matches_the_exact_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    seen = set()

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True)
    @hypothesis.given(_maxmin_cases(hypothesis.strategies))
    def check(case):
        k, gains = case
        value, face, binding = _solve(gains, k)
        if k <= 2:
            picked = ("k = 1", "envelope")[k - 1]
        else:
            picked = "transposed" if len(gains) <= 2 else "value LP"
        if binding is None:
            binding = _binding(gains, face, value)
        results = {picked: (value, face, binding)}
        # the branches _solve does not pick, where they apply
        branches = {"value LP": _value_lp, "transposed": _transposed if len(gains) <= 2 else None}
        for name, solve in branches.items():
            if solve is not None and name != picked:
                v, f = _face(gains, k, *solve(gains, k))
                results[name] = (v, f, _binding(gains, f, v))
        assert value == maxmin_value(gains, k)
        assert all(result == results[picked] for result in results.values()), results
        seen.update(results)
        if len(face) > 1:
            seen.add(f"{picked}: a face, not a point")
        if len(face) > 2:
            seen.add("a face beyond a segment")
        if k > 2 and len(face) > 1:
            seen.update(_face_cases(gains, k, value, face))

    check()
    assert {
        "k = 1",
        "envelope",
        "transposed",
        "value LP",
        "envelope: a face, not a point",
        "transposed: a face, not a point",
        "value LP: a face, not a point",
        "a face beyond a segment",
        "a gain row dropped as non-binding",
        "a face vertex with a tight gain inequality (s >= 1)",
    } <= seen, seen


def _point_sets(st):
    """2..8 points in 2..5 coordinates whose affine hull has dimension
    0..4: a base point plus small integer combinations of as many
    directions, so dependent sets and repeated points are frequent.

    The target names the decider the set is drawn for: as many points as
    the hull dimension plus one (affinely independent unless the draw
    degenerates), or more, in a hull of dimension 1..2 or 3..4, at times
    with the centroid of three of them.
    """

    @st.composite
    def case(draw):
        target = draw(st.sampled_from(["independent", "planar", "pairwise"]))
        bounds = {"independent": (1, 4), "planar": (1, 2), "pairwise": (3, 4)}
        d = draw(st.integers(*bounds[target]))
        n = draw(st.integers(max(d, 2), 5))
        count = d + 1 if target == "independent" else draw(st.integers(d + 2, 7))
        entry = st.builds(F, st.integers(-3, 3), st.integers(1, 3))
        base = draw(st.lists(entry, min_size=n, max_size=n))
        small = st.integers(-2, 2)
        directions = draw(st.lists(st.lists(small, min_size=n, max_size=n), min_size=d, max_size=d))
        coefficients = st.lists(small, min_size=d, max_size=d)
        points = [
            Vector(b + sum(c * u[i] for c, u in zip(cs, directions)) for i, b in enumerate(base))
            for cs in draw(st.lists(coefficients, min_size=count, max_size=count))
        ]
        if target != "independent" and draw(st.booleans()):
            # the centroid of three points lies in the hull
            points.insert(draw(st.integers(0, count)), Vector(sum(x) / 3 for x in zip(*points[:3])))
        return points

    return case()


def test_every_minimize_decider_matches_the_exact_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    seen = set()

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
    @hypothesis.given(_point_sets(hypothesis.strategies))
    def check(points):
        expected = extreme_points(points)
        assert list(polytope_minimize(Polytope(tuple(points))).vertices) == expected
        distinct = sorted(set(points))
        assert sorted(_pairwise_extremes(distinct.copy())) == expected
        # the hull's directions in reduced echelon form: their pivot
        # coordinates project it one-to-one
        rows = [v - distinct[0] for v in distinct[1:]]
        basis, _ = row_reduce(rows, [0] * len(rows))
        axes = [next(j for j, c in enumerate(r) if c) for r in basis]
        if len(axes) + 1 == len(distinct):
            assert distinct == expected
            picked = "independent"
        else:
            picked = "planar" if len(axes) <= 2 else "pairwise"
        if 1 <= len(axes) <= 2:
            assert sorted(_planar_extremes(distinct, axes)) == expected
            seen.add("planar applies")
        seen.add(picked)
        if len(expected) < len(distinct):
            seen.add(f"{picked}: a point inside")

    check()
    assert {
        "independent",
        "planar",
        "pairwise",
        "planar applies",
        "planar: a point inside",
        "pairwise: a point inside",
    } <= seen, seen
