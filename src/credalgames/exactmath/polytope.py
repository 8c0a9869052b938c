"""Vertex-represented convex polytopes with exact membership and minimization.

Everything is V-representation: a polytope is the convex hull of its listed
vertices.  Membership solves ``[vertices; 1] . lambda = [x; 1]`` by one exact
row reduction: an inconsistent system puts x outside the affine hull, and
affinely independent vertices (a simplex) have unique weights whose signs
decide.  Dependent vertices whose affine hull has dimension 2 or less (points
on a segment or in a plane, such as every belief set over three states) are
projected onto one or two coordinates that keep their affine hull one-to-one,
where an exact interval or an exact monotone-chain hull (Andrew 1979)
decides.  Only dependent sets of dimension 3 or more run an exact LP
feasibility check.  Minimization yields the unique set of extreme points
(sorted, so minimized polytopes have a canonical form).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import itemgetter

from .linprog import EQUAL, lp_feasible
from .rational import rat
from .record import Record
from .vector import DimensionMismatchError, Vector, dot, row_reduce


class Polytope(Record):
    __slots__ = ("vertices",)

    def __init__(self, vertices: tuple[Vector, ...]):
        if not vertices:
            raise ValueError("polytope needs at least one vertex")
        n = vertices[0].dimension
        for v in vertices:
            if v.dimension != n:
                raise DimensionMismatchError(f"vertex of dimension {v.dimension} in {n}-d polytope")
        object.__setattr__(self, "vertices", vertices)

    @property
    def ambient_dimension(self) -> int:
        return self.vertices[0].dimension

    @classmethod
    def from_vertices(cls, vertices) -> "Polytope":
        return cls(tuple(v if isinstance(v, Vector) else Vector(v) for v in vertices))

    def to_json(self) -> dict:
        return {
            "dimension": self.ambient_dimension,
            "vertices": [v.to_json() for v in self.vertices],
        }


def polytope_contains(p: Polytope, x: Vector) -> bool:
    """Exact test that x is a convex combination of p's vertices.

    One row reduction of ``[vertices; 1] . lambda = [x; 1]`` answers most
    cases: an inconsistent system puts x outside the affine hull, and a
    full-rank one (affinely independent vertices) has unique weights, which
    contain x iff all are nonnegative.  Dependent vertices leave a family of
    weights.  When their affine hull has dimension 2 or less, x (inside that
    hull, not a vertex) is in the polytope iff it is not an extreme point of
    the vertices together with x, which ``polytope_minimize`` finds by an
    interval or edge-side tests, with no LP; in higher dimensions an LP
    feasibility check over the same system decides.
    """
    if x.dimension != p.ambient_dimension:
        raise DimensionMismatchError(
            f"point of dimension {x.dimension} vs polytope of {p.ambient_dimension}"
        )
    verts = p.vertices
    if x in verts:
        return True
    n = len(verts)
    rows = [[v[coord] for v in verts] for coord in range(p.ambient_dimension)]
    rows.append([Fraction(1)] * n)
    rhs = list(x) + [Fraction(1)]
    reduced = row_reduce(rows, rhs)
    if reduced is None:
        return False
    basis, weights = reduced
    if len(basis) == n:
        return all(w >= 0 for w in weights)
    # the rank is the affine hull's dimension plus one
    if len(basis) <= 3:
        return x not in polytope_minimize(Polytope((*verts, x))).vertices
    constraints = [(row, EQUAL, b) for row, b in zip(rows, rhs)]
    return lp_feasible(constraints, n) is not None


def polytope_minimize(p: Polytope) -> Polytope:
    """Drop every vertex inside the hull of the others; sort the survivors.

    The extreme-point set of a polytope is unique, so the output is a
    canonical form: two polytopes are equal iff their minimized vertex
    tuples are equal.  Affinely independent points are all extreme and are
    only sorted; one or two distinct points always are, and more are found
    so by one rank test of the points lifted by a trailing 1, which gives
    their affine hull's dimension.  Dependent points in a hull of dimension
    2 or less are minimized by ``_planar_extremes``; otherwise each point
    is tested against the hull of the rest.
    """
    verts: list[Vector] = []
    for v in p.vertices:
        if v not in verts:
            verts.append(v)
    if len(verts) <= 2:
        return Polytope(tuple(sorted(verts)))
    lifted = [list(v) + [Fraction(1)] for v in verts]
    basis, _ = row_reduce(lifted, [Fraction(0)] * len(lifted))
    if len(basis) == len(verts):
        return Polytope(tuple(sorted(verts)))
    if len(basis) <= 3:
        return Polytope(tuple(sorted(_planar_extremes(verts, _hull_axes(basis)))))
    i = 0
    while i < len(verts) and len(verts) > 1:
        others = verts[:i] + verts[i + 1 :]
        if polytope_contains(Polytope(tuple(others)), verts[i]):
            verts.pop(i)
        else:
            i += 1
    return Polytope(tuple(sorted(verts)))


def _hull_axes(basis: list[list[Fraction]]) -> list[int]:
    """Coordinates whose projection is one-to-one on the affine hull of some
    points, as many as its dimension, from the reduced rows ``basis`` of the
    points lifted by a trailing 1.

    The rows form an identity in their pivot columns, so every combination
    of them has its weights as its pivot coordinates.  The lifted difference
    of two hull points is such a combination with last entry 0, which fixes
    the weight of a row with a nonzero last entry (one exists, as ``(v, 1)``
    ends in 1) by the other weights.  So a difference that vanishes on the
    other pivots vanishes.
    """
    pivots = [next(j for j, c in enumerate(row) if c) for row in basis]
    drop = next(i for i, row in enumerate(basis) if row[-1])
    return pivots[:drop] + pivots[drop + 1 :]


def _planar_extremes(verts: list[Vector], axes: list[int]) -> list[Vector]:
    """The extreme points of distinct points whose affine hull projects
    one-to-one onto one or two coordinates ``axes``.

    An affine bijection keeps which points are extreme.  On one axis they
    are the least and the greatest coordinate.  On two, the coordinates are
    scaled to integers and Andrew's monotone chain builds the lower and the
    upper hull, popping every point that does not make a strict left turn,
    so points on an edge are dropped.
    """
    if len(axes) == 1:
        key = itemgetter(axes[0])
        return [min(verts, key=key), max(verts, key=key)]
    scaled = []
    for axis in axes:
        scale = lcm(*(v[axis].denominator for v in verts))
        scaled.append([v[axis].numerator * (scale // v[axis].denominator) for v in verts])
    points = sorted(zip(*scaled, verts))

    def chain(ordered):
        hull = []
        for point in ordered:
            while len(hull) >= 2:
                (x0, y0, _), (x1, y1, _) = hull[-2], hull[-1]
                if (x1 - x0) * (point[1] - y0) - (y1 - y0) * (point[0] - x0) > 0:
                    break
                hull.pop()
            hull.append(point)
        return hull[:-1]

    return [v for _, _, v in chain(points) + chain(reversed(points))]


def affine_image(p: Polytope, matrix) -> Polytope:
    """Image of the hull under x -> matrix.x, minimized.

    Linear maps carry vertex sets onto supersets of the image's vertex set,
    so mapping vertices and minimizing is exact.
    """
    rows = [[rat(c) for c in r] for r in matrix]
    for row in rows:
        if len(row) != p.ambient_dimension:
            raise DimensionMismatchError(
                f"matrix has {len(row)} columns, polytope dimension is {p.ambient_dimension}"
            )
    images = [Vector(dot(row, v) for row in rows) for v in p.vertices]
    return polytope_minimize(Polytope.from_vertices(images))
