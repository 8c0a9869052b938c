import random
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


def _lifted_rank(points) -> int:
    lifted = [list(v) + [F(1)] for v in points]
    return len(row_reduce(lifted, [F(0)] * len(lifted))[0])


def _membership_cases(st):
    """A vertex set and a query point in dimension 1..4.

    Vertices are probability vectors or free rationals (off the simplex);
    the set is kept as drawn (independent when small), or gets a duplicate
    or an affine combination of its points appended.  The query is a
    vertex, a convex combination (zero weights put it on the boundary), an
    affine combination with negative weights (in the affine hull, often
    outside the polytope) or a shifted convex combination (often outside
    the affine hull).
    """
    small = st.integers(-3, 3)

    @st.composite
    def case(draw):
        d = draw(st.integers(1, 4))
        if draw(st.booleans()):
            weights = st.lists(st.integers(0, 3), min_size=d, max_size=d).filter(any)
            point = weights.map(lambda w: Vector(F(x, sum(w)) for x in w))
        else:
            point = st.lists(small, min_size=d, max_size=d).map(Vector)
        verts = draw(st.lists(point, min_size=1, max_size=d + 2))
        shape = draw(st.sampled_from(["drawn", "duplicate", "dependent"]))
        if shape == "duplicate":
            verts.append(draw(st.sampled_from(verts)))
        elif shape == "dependent":
            w = draw(st.lists(small, min_size=len(verts), max_size=len(verts)))
            w[-1] += 1 - sum(w)
            verts.append(_combine(verts, w))
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

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
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
        seen.add(("duplicates", len(distinct) < len(p.vertices)))

    check()
    # the draws reach every branch: unique weights in or out, outside the
    # affine hull, and the LP fallback in or out
    assert {
        (True, True, True),
        (True, True, False),
        (True, False, False),
        (False, True, True),
        (False, True, False),
        ("duplicates", True),
    } <= seen


def test_simplex_shaped_questions_need_no_lp(monkeypatch):
    # affinely independent vertices are all extreme and give unique convex
    # weights, so neither minimizing nor membership may run the LP
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
        inside = polytope_contains(p, x)
        monkeypatch.setattr(linprog, "lp_solve", real)
        assert minimized == lp_minimize(p)
        assert inside == lp_contains(p, x)
    assert solves == []
