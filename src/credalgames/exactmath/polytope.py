"""Vertex-represented convex polytopes with exact membership and minimization.

Everything is V-representation: a polytope is the convex hull of its listed
vertices.  Membership of a point that is not a vertex is one exact LP
feasibility check over the convex weights.  Minimization clears its points
of denominators once, and one fraction-free elimination finds affinely
independent points (a simplex), all extreme.  Dependent points whose affine
hull has dimension 2 or less (every belief set over three states) are
projected onto one or two coordinates, where an exact interval or
monotone-chain hull (Andrew 1979) decides; only in higher dimensions is
each point tested for membership in the hull of the rest.  Minimized
polytopes are sorted: a canonical form.
"""

from __future__ import annotations

from operator import itemgetter

from .linprog import EQUAL, lp_feasible
from .record import Record
from .vector import DimensionMismatchError, Vector, cleared, dot, eliminate


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

    A vertex is in.  Any other point is in iff one exact phase-1 LP finds
    nonnegative weights ``lambda`` with ``[vertices; 1] . lambda = [x; 1]``.
    """
    if x.dimension != p.ambient_dimension:
        raise DimensionMismatchError(
            f"point of dimension {x.dimension} vs polytope of {p.ambient_dimension}"
        )
    verts = p.vertices
    if x in verts:
        return True
    n = len(verts)
    rows = [([v[coord] for v in verts], EQUAL, x[coord]) for coord in range(p.ambient_dimension)]
    rows.append(([1] * n, EQUAL, 1))
    return lp_feasible(rows, n) is not None


def polytope_minimize(p: Polytope) -> Polytope:
    """Drop every vertex inside the hull of the others; sort the survivors.

    The extreme-point set of a polytope is unique, so the output is a
    canonical form: two polytopes are equal iff their minimized vertex
    tuples are equal.  One or two distinct points are all extreme.  More
    are lifted by a leading 1 and cleared of denominators, and one forward
    elimination of those integer rows gives their rank, the affine hull's
    dimension plus one: at their count, the points are affinely
    independent, all extreme.  Dependent points in a hull of dimension 2 or
    less are minimized by ``_planar_extremes``; otherwise each point is
    tested against the hull of the rest.
    """
    # an equality scan, not a dict: at a few points per set it is about 3x
    # faster, as hashing a Fraction takes a modular inverse per entry
    verts: list[Vector] = []
    for v in p.vertices:
        if v not in verts:
            verts.append(v)
    if len(verts) <= 2:
        return Polytope(tuple(sorted(verts)))
    basis = [cleared([1, *v]) for v in verts]
    if (rank := eliminate(basis, p.ambient_dimension + 1, full=False)[0]) == len(verts):
        return Polytope(tuple(sorted(verts)))
    if rank <= 3:
        # clearing the first row's leading entry turns the rows below into
        # differences of points, so they end as an echelon basis of the
        # hull's directions: their pivot coordinates project it one-to-one
        axes = [next(j for j, c in enumerate(row) if c) - 1 for row in basis[1:rank]]
        return Polytope(tuple(sorted(_planar_extremes(verts, axes))))
    return Polytope(tuple(sorted(_pairwise_extremes(verts))))


def _pairwise_extremes(verts: list[Vector]) -> list[Vector]:
    """Drop, in place, each distinct point that the rest's hull contains."""
    i = 0
    while i < len(verts) and len(verts) > 1:
        others = verts[:i] + verts[i + 1 :]
        if polytope_contains(Polytope(tuple(others)), verts[i]):
            verts.pop(i)
        else:
            i += 1
    return verts


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
    scaled = [cleared([v[axis] for v in verts]) for axis in axes]
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

    ``matrix`` is a sequence of rows of ints or Fractions, read as they are.
    Linear maps carry vertex sets onto supersets of the image's vertex set,
    so mapping vertices and minimizing is exact.
    """
    for row in matrix:
        if len(row) != p.ambient_dimension:
            raise DimensionMismatchError(
                f"matrix has {len(row)} columns, polytope dimension is {p.ambient_dimension}"
            )
    images = [Vector(dot(row, v) for row in matrix) for v in p.vertices]
    return polytope_minimize(Polytope.from_vertices(images))
