import random
from fractions import Fraction

import pytest

from credalgames.exactmath import (
    DimensionMismatchError,
    Polytope,
    Vector,
    affine_image,
    polytope_contains,
    polytope_equal,
    polytope_minimize,
)

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
