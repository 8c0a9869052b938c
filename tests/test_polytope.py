import random
import sys
from fractions import Fraction

import pytest

from credalgames.exactmath import (
    DimensionMismatchError,
    Polytope,
    Vector,
    affine_image,
    polytope_contains,
    polytope_minimize,
    row_reduce,
)
from polytope_oracle import lp_contains, lp_minimize, polytope_equal

F = Fraction


def poly(*verts):
    return Polytope.from_vertices([Vector(v) for v in verts])


UNIT_SIMPLEX_3 = poly([1, 0, 0], [0, 1, 0], [0, 0, 1])

# quarter-contamination of the point mass on the middle of three states
CONTAMINATED = poly(
    [F(1, 4), F(3, 4), 0], [0, 1, 0], [0, F(3, 4), F(1, 4)]
)


def test_simplex_contains_barycenter():
    assert polytope_contains(UNIT_SIMPLEX_3, Vector([F(1, 3)] * 3))


def test_simplex_excludes_non_distribution():
    assert not polytope_contains(UNIT_SIMPLEX_3, Vector([1, 1, 0]))


def test_contamination_excludes_hull_corner():
    # oracle: writing (3/16, 9/16, 1/4) over the three vertices forces
    # weight 3/4 on the first and 1 on the third, already summing past 1,
    # so no convex combination exists
    assert not polytope_contains(CONTAMINATED, Vector([F(3, 16), F(9, 16), F(1, 4)]))


def test_contains_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        polytope_contains(UNIT_SIMPLEX_3, Vector([1, 0]))


def test_vertices_must_share_one_dimension():
    # the first vertex fixes the ambient dimension; any other must match it
    with pytest.raises(DimensionMismatchError):
        Polytope((Vector([1, 0]), Vector([1])))
    with pytest.raises(DimensionMismatchError):
        Polytope.from_vertices([[1], [0, 1]])
    with pytest.raises(ValueError):
        Polytope(())
    assert poly([1, 0], [0, 1]).ambient_dimension == 2


def test_minimize_drops_midpoint():
    line = poly([0], [1], [F(1, 2)])
    assert polytope_minimize(line).vertices == (Vector([0]), Vector([1]))


def test_minimize_keeps_triangle():
    assert polytope_equal(polytope_minimize(UNIT_SIMPLEX_3), UNIT_SIMPLEX_3)
    assert set(polytope_minimize(UNIT_SIMPLEX_3).vertices) == set(UNIT_SIMPLEX_3.vertices)


def test_minimize_composed_rectangle_points():
    # all eight products of marginal mass {1, 3/4} on the first two states
    # with conditionals {(1/4,3/4), (0,1)} over them; four are redundant
    margs = [(F(1), F(0)), (F(3, 4), F(1, 4))]
    conds = [(F(1, 4), F(3, 4)), (F(0), F(1))]
    pts = []
    for (m1, m0), (cl, cr) in [(m, c) for m in margs for c in conds]:
        pts.append([m1 * cl, m1 * cr, m0])
    pts.extend([[F(1, 8), F(7, 8), 0], [F(3, 32), F(21, 32), F(1, 4)]])
    minimized = polytope_minimize(Polytope.from_vertices(pts))
    assert set(minimized.vertices) == {
        Vector([F(1, 4), F(3, 4), 0]),
        Vector([0, 1, 0]),
        Vector([0, F(3, 4), F(1, 4)]),
        Vector([F(3, 16), F(9, 16), F(1, 4)]),
    }


def test_minimize_is_canonical():
    a = poly([0, 1], [1, 0], [F(1, 2), F(1, 2)])
    b = poly([1, 0], [0, 1])
    assert polytope_minimize(a) == polytope_minimize(b)


def test_equal_up_to_permutation():
    a = poly([1, 0, 0], [0, 1, 0], [0, 0, 1])
    b = poly([0, 0, 1], [1, 0, 0], [0, 1, 0])
    assert polytope_equal(a, b)


def test_simplex_not_equal_to_barycenter():
    assert not polytope_equal(UNIT_SIMPLEX_3, poly([F(1, 3), F(1, 3), F(1, 3)]))


def test_contaminated_differs_from_its_rectangular_closure():
    closure = poly(
        [0, 1, 0],
        [F(1, 4), F(3, 4), 0],
        [0, F(3, 4), F(1, 4)],
        [F(3, 16), F(9, 16), F(1, 4)],
    )
    assert not polytope_equal(CONTAMINATED, closure)


def test_affine_identity():
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert polytope_equal(affine_image(CONTAMINATED, eye), CONTAMINATED)


def test_affine_projection_onto_first_two_coordinates():
    proj = [[1, 0, 0], [0, 1, 0]]
    image = affine_image(CONTAMINATED, proj)
    assert set(image.vertices) == {
        Vector([0, 1]),
        Vector([F(1, 4), F(3, 4)]),
        Vector([0, F(3, 4)]),
    }


def test_affine_on_singleton():
    single = poly([0, 1, 0])
    mapped = affine_image(single, [[1, F(1, 2), 0], [0, F(1, 2), 0], [0, 0, 1]])
    assert mapped.vertices == (Vector([F(1, 2), F(1, 2), 0]),)


def random_fraction(rng, den=8):
    return F(rng.randint(0, den), den)


def test_membership_invariants_random():
    rng = random.Random(7)
    for _ in range(25):
        dim = rng.choice([2, 3])
        verts = [
            Vector([F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(dim)])
            for _ in range(rng.randint(1, 5))
        ]
        p = Polytope.from_vertices(verts)
        for v in verts:
            assert polytope_contains(p, v)
        weights = [F(rng.randint(0, 5)) for _ in verts]
        if sum(weights) == 0:
            weights[0] = F(1)
        total = sum(weights)
        combo = Vector(
            [
                sum((w * v[i] for w, v in zip(weights, verts)), F(0)) / total
                for i in range(dim)
            ]
        )
        assert polytope_contains(p, combo)
        assert polytope_equal(p, polytope_minimize(p))


def test_affine_image_commutes_with_combination():
    rng = random.Random(11)
    matrix = [[F(1), F(1, 2), 0], [0, F(1, 3), F(2)], [F(-1), 0, F(1, 5)]]
    for _ in range(10):
        verts = [
            Vector([F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)])
            for _ in range(4)
        ]
        p = Polytope.from_vertices(verts)
        image = affine_image(p, matrix)
        w = [F(rng.randint(0, 4)) for _ in verts]
        if sum(w) == 0:
            w[0] = F(1)
        total = sum(w)
        interior = Vector(
            [sum((wi * v[i] for wi, v in zip(w, verts)), F(0)) / total for i in range(3)]
        )
        mapped = Vector([sum((c * x for c, x in zip(row, interior)), F(0)) for row in matrix])
        assert polytope_contains(image, mapped)


LARGE_PRIMES = (1_000_003, 998_244_353, 2_147_483_647, 1_000_000_007)


def _lifted_rank(points) -> int:
    lifted = [list(v) + [F(1)] for v in points]
    return len(row_reduce(lifted, [F(0)] * len(lifted))[0])


def _membership_cases(st):
    """A vertex set and a query point in dimension 1..4.

    Vertices are probability vectors, small integers (off the simplex) or
    rationals over large primes; the set is kept as drawn (independent when
    small), gets a duplicate or an affine combination of its points
    appended, has every point repeated, or is cut to its first few points
    and their affine combinations (any affine dimension 0..4).  The query is a
    vertex, a convex combination (zero weights put it on the boundary), an
    affine combination with negative weights (in the affine hull, often
    outside the polytope) or a shifted convex combination (often outside
    the affine hull).
    """
    small = st.integers(-3, 3)
    # large primes, so the entries of a point rarely share a denominator
    coprime = st.tuples(st.integers(-(10**6), 10**6), st.sampled_from(LARGE_PRIMES))

    @st.composite
    def case(draw):
        d = draw(st.integers(1, 4))
        entries = draw(st.sampled_from(["probability", "small", "coprime"]))
        if entries == "probability":
            weights = st.lists(st.integers(0, 3), min_size=d, max_size=d).filter(any)
            point = weights.map(lambda w: Vector(F(x, sum(w)) for x in w))
        elif entries == "small":
            point = st.lists(small, min_size=d, max_size=d).map(Vector)
        else:
            point = st.lists(coprime, min_size=d, max_size=d).map(
                lambda c: Vector(F(n, q) for n, q in c)
            )
        verts = draw(st.lists(point, min_size=1, max_size=d + 2))
        shape = draw(st.sampled_from(["drawn", "duplicate", "dependent", "repeated", "flat"]))
        if shape == "duplicate":
            verts.append(draw(st.sampled_from(verts)))
        elif shape == "dependent":
            w = draw(st.lists(small, min_size=len(verts), max_size=len(verts)))
            w[-1] += 1 - sum(w)
            verts.append(_combine(verts, w))
        elif shape == "repeated":
            verts = draw(st.permutations(verts * draw(st.integers(2, 3))))
        elif shape == "flat":
            # the first k points and affine combinations of them: affine dimension below k
            base = verts[: draw(st.integers(1, len(verts)))]
            for _ in range(draw(st.integers(1, 4))):
                w = draw(st.lists(small, min_size=len(base), max_size=len(base)))
                w[-1] += 1 - sum(w)
                base.append(_combine(base, w))
            verts = base
        query = draw(st.sampled_from(["vertex", "convex", "affine", "shifted"]))
        if query == "vertex":
            x = draw(st.sampled_from(verts))
        else:
            lo = 0 if query != "affine" else -2
            w = draw(st.lists(st.integers(lo, 3), min_size=len(verts), max_size=len(verts)))
            if sum(w) == 0:
                w[-1] += 1
            x = _combine(verts, [F(c, sum(w)) for c in w])
            if query == "shifted":
                x = x + Vector(draw(st.lists(small, min_size=d, max_size=d)))
        return Polytope(tuple(verts)), x

    return case()


def _combine(verts, weights) -> Vector:
    return Vector(
        sum((w * v[i] for w, v in zip(weights, verts)), F(0)) for i in range(verts[0].dimension)
    )


def test_membership_and_minimize_match_the_lp_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    seen = set()

    @hypothesis.settings(max_examples=500, deadline=None, derandomize=True)
    @hypothesis.given(_membership_cases(hypothesis.strategies))
    def check(case):
        p, x = case
        inside = lp_contains(p, x)
        assert polytope_contains(p, x) == inside
        assert polytope_minimize(p) == lp_minimize(p)
        distinct = set(p.vertices)
        unique_weights = _lifted_rank(p.vertices) == len(p.vertices)
        in_affine_hull = _lifted_rank(distinct | {x}) == _lifted_rank(distinct)
        seen.add((unique_weights, in_affine_hull, inside))
        if not unique_weights and in_affine_hull:
            seen.add(("planar" if _lifted_rank(distinct) <= 3 else "lp", inside))
        seen.add(("duplicates", len(distinct) < len(p.vertices)))
        seen.add(("repeats", len(distinct) + 1 < len(p.vertices)))
        seen.add(("affine dimension", _lifted_rank(distinct) - 1))
        denominators = [e.denominator for e in p.vertices[0]]
        seen.add(("coprime", len(denominators) > 1 and max(denominators) in LARGE_PRIMES))

    check()
    # the draws reach every shape of question: unique weights in or out,
    # outside the affine hull, and dependent weights in or out, in a hull of
    # affine dimension 2 or less (minimized on one or two coordinates) or
    # more (minimized pairwise); they repeat
    # points, clear large coprime denominators and span every affine
    # dimension 0..4
    assert {("affine dimension", r) for r in range(5)} <= seen
    assert {("repeats", True), ("coprime", True)} <= seen
    assert {
        (True, True, True),
        (True, True, False),
        (True, False, False),
        (False, True, True),
        (False, True, False),
        ("planar", True),
        ("planar", False),
        ("lp", True),
        ("lp", False),
        ("duplicates", True),
    } <= seen


def test_simplex_shaped_questions_need_no_lp(monkeypatch):
    # affinely independent vertices are all extreme, so minimizing them may
    # not run the LP; membership of a point that is not a vertex is one LP
    import credalgames.exactmath.linprog as linprog

    rng = random.Random(12)
    real = linprog.lp_solve
    solves = []

    def counting(lp):
        solves.append(lp)
        return real(lp)

    trials = 0
    while trials < 40:
        d = rng.randint(1, 5)
        verts = [
            Vector([F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)])
            for _ in range(rng.randint(2, d + 1))
        ]
        if _lifted_rank(verts) < len(verts):
            continue
        trials += 1
        p = Polytope(tuple(verts))
        w = [F(rng.randint(-1, 3)) for _ in verts]
        if sum(w) == 0:
            w[0] += 1
        x = _combine(verts, [c / sum(w) for c in w])
        monkeypatch.setattr(linprog, "lp_solve", counting)
        minimized = polytope_minimize(p)
        assert solves == []
        inside = polytope_contains(p, x)
        monkeypatch.setattr(linprog, "lp_solve", real)
        assert len(solves) == (x not in verts)
        solves.clear()
        assert minimized == lp_minimize(p)
        assert inside == lp_contains(p, x)


@pytest.mark.parametrize(
    "points",
    [
        [[F(1, 3), F(2, 3)]],
        [[F(1, 3), F(2, 3)]] * 3,
        [[1, 0, F(-1, 2)], [F(1, 4), 0, 2]],
        [[1, 0, F(-1, 2)], [F(1, 4), 0, 2], [1, 0, F(-1, 2)], [F(1, 4), 0, 2]],
        [[F(5, 7)], [F(-2, 3)], [F(5, 7)]],
    ],
    ids=["one", "one-repeated", "two", "two-repeated", "two-on-a-line"],
)
def test_one_or_two_points_need_no_rank_test(points):
    # any two distinct points are affinely independent, so minimizing them
    # only sorts, with no elimination of any kind
    from credalgames.exactmath.vector import eliminate

    p = poly(*points)
    minimized, called = _calls([row_reduce, eliminate], lambda: polytope_minimize(p))
    assert called == []
    assert minimized == lp_minimize(p)


def test_minimizing_independent_points_reads_no_fractions_back():
    # affinely independent points are found so by an integer rank; the
    # Fraction readout of row_reduce never runs
    rng = random.Random(24)
    trials = 0
    while trials < 60:
        d = rng.randint(2, 6)
        verts = [
            Vector([F(rng.randint(-9, 9), rng.choice([1, 2, 7, 1_000_003])) for _ in range(d)])
            for _ in range(rng.randint(3, d + 1))
        ]
        if _lifted_rank(verts) < len(verts):
            continue
        trials += 1
        p = Polytope(tuple(verts + verts[:1]))
        minimized, called = _calls([row_reduce], lambda: polytope_minimize(p))
        assert called == []
        assert minimized == lp_minimize(p)


def _calls(functions, thunk):
    """The result of ``thunk()`` and the names of the given functions it
    called, in order, under whatever name a module imported them."""
    names = {f.__code__: f.__name__ for f in functions}
    called = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            called.append(names[frame.f_code])

    sys.setprofile(profile)
    try:
        return thunk(), called
    finally:
        sys.setprofile(None)


@pytest.mark.parametrize(
    "argv",
    [["analyze", "fig4"], ["check-rect", "fig4"], ["sweep", "--bisect", "1/2040000:1/51"]],
    ids=["analyze-fig4", "check-rect-fig4", "sweep-bisect"],
)
def test_paper_commands_solve_no_lp(argv, monkeypatch, capsys):
    # every belief set of the paper lives in a three-state simplex, so each
    # dependent point set is planar, and every player has two strategies
    import credalgames.exactmath.linprog as linprog
    import credalgames.maxmin
    from credalgames.cli import main

    real = linprog.lp_solve
    solves = []

    def counting(lp):
        solves.append(lp)
        return real(lp)

    monkeypatch.setattr(linprog, "lp_solve", counting)
    monkeypatch.setattr(credalgames.maxmin, "lp_solve", counting)
    assert main(argv) == 0
    assert solves == []


def _planar_cases(st):
    """Points of affine dimension 0, 1 or 2 embedded in 3..6 dimensions, and
    a query point.

    Parameters ``u`` (integer pairs, the second 0 on a line, both 0 for
    all-equal points) map to ``origin + M u`` with M of full column rank, so
    the points are collinear or coplanar, with rational coordinates.  The set
    may repeat a point.  The query is a vertex; a point on a supporting
    segment (between two points with all others on one side of their line,
    so on the boundary); a convex or an affine combination; or one of those
    shifted off the affine hull.
    """
    small = st.integers(-3, 3)
    rational = st.builds(F, small, st.integers(1, 4))

    @st.composite
    def case(draw):
        n = draw(st.integers(3, 6))
        k = draw(st.integers(0, 2))
        origin = draw(st.lists(rational, min_size=n, max_size=n))
        # a unit entry of each column where the other has 0 keeps M's rank 2
        i, j = draw(st.permutations(range(n)))[:2]
        column = st.lists(rational, min_size=n, max_size=n)
        columns = draw(st.lists(column, min_size=2, max_size=2))
        columns[0][i], columns[0][j], columns[1][i], columns[1][j] = 1, 0, 0, 1
        params = draw(
            st.lists(st.tuples(small, small), min_size=3, max_size=8).map(
                lambda us: [(a if k else 0, b if k == 2 else 0) for a, b in us]
            )
        )
        if draw(st.booleans()):
            params.append(draw(st.sampled_from(params)))

        def embed(u):
            return Vector(o + u[0] * c0 + u[1] * c1 for o, c0, c1 in zip(origin, *columns))

        query = draw(st.sampled_from(["vertex", "boundary", "convex", "affine", "off"]))
        supporting = [
            (a, b) for a in params for b in params if a < b and _one_side(a, b, params)
        ]
        if query == "boundary" and supporting:
            a, b = draw(st.sampled_from(supporting))
            t = draw(st.builds(F, st.integers(1, 4), st.just(5)))
            u = tuple((1 - t) * x + t * y for x, y in zip(a, b))
        elif query in ("convex", "affine", "off"):
            lo = -3 if query == "affine" else 0
            w = draw(st.lists(st.integers(lo, 3), min_size=len(params), max_size=len(params)))
            if sum(w) == 0:
                w[-1] += 1
            u = tuple(sum(F(c, sum(w)) * p[i] for c, p in zip(w, params)) for i in range(2))
        else:
            query = "vertex"
            u = draw(st.sampled_from(params))
        x = embed(u)
        if query == "off":
            x = x + Vector(draw(st.lists(small, min_size=n, max_size=n)))
        return Polytope(tuple(embed(u) for u in params)), x, query

    return case()


def _one_side(a, b, points) -> bool:
    """Every point lies on one closed side of the line through a and b."""
    sides = {
        (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0]) for p in points
    }
    return all(s >= 0 for s in sides) or all(s <= 0 for s in sides)


def test_planar_hulls_match_the_lp_oracle_without_an_lp(monkeypatch):
    # points of affine dimension 2 or less are minimized by an interval or a
    # monotone chain on two coordinates, never by the LP; membership of a
    # point that is not a vertex is one LP
    hypothesis = pytest.importorskip("hypothesis")
    import credalgames.exactmath.linprog as linprog

    real = linprog.lp_solve
    solves = []

    def counting(lp):
        solves.append(lp)
        return real(lp)

    seen = set()

    @hypothesis.settings(max_examples=600, deadline=None, derandomize=True)
    @hypothesis.given(_planar_cases(hypothesis.strategies))
    def check(case):
        p, x, query = case
        monkeypatch.setattr(linprog, "lp_solve", counting)
        minimized = polytope_minimize(p)
        assert solves == []
        inside = polytope_contains(p, x)
        monkeypatch.setattr(linprog, "lp_solve", real)
        assert len(solves) == (x not in p.vertices)
        solves.clear()
        assert minimized == lp_minimize(p)
        assert inside == lp_contains(p, x)
        seen.add((_lifted_rank(set(p.vertices)) - 1, query, inside))
        seen.add(("ambient", p.ambient_dimension))
        seen.add(("duplicates", len(set(p.vertices)) < len(p.vertices)))

    check()
    assert {
        (0, "vertex", True),
        (0, "off", False),
        (1, "vertex", True),
        (1, "boundary", True),
        (1, "affine", False),
        (1, "off", False),
        (2, "vertex", True),
        (2, "boundary", True),
        (2, "convex", True),
        (2, "affine", False),
        (2, "off", False),
        ("duplicates", True),
        ("ambient", 3),
        ("ambient", 6),
    } <= seen
