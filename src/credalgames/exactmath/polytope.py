"""Vertex-represented convex polytopes with exact membership and minimization.

Everything is V-representation: a polytope is the convex hull of its listed
vertices.  Membership solves ``[vertices; 1] . lambda = [x; 1]`` by one exact
row reduction: when the vertices are affinely independent (a simplex) the
weights are unique and their signs decide; only otherwise does an exact LP
feasibility check run.  Minimization yields the unique set of extreme points
(sorted, so minimized polytopes have a canonical form).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linprog import EQUAL, lp_feasible
from .rational import rat
from .vector import DimensionMismatchError, Vector, row_reduce


@dataclass(frozen=True, slots=True)
class Polytope:
    vertices: tuple[Vector, ...]

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("polytope needs at least one vertex")
        for v in self.vertices:
            if v.dimension != self.ambient_dimension:
                raise DimensionMismatchError(
                    f"vertex of dimension {v.dimension} in {self.ambient_dimension}-d polytope"
                )

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
    weights, and an LP feasibility check over the same system decides.
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
    constraints = [(row, EQUAL, b) for row, b in zip(rows, rhs)]
    return lp_feasible(constraints, n) is not None


def polytope_minimize(p: Polytope) -> Polytope:
    """Drop every vertex inside the hull of the others; sort the survivors.

    The extreme-point set of a polytope is unique, so the output is a
    canonical form: two polytopes are equal iff their minimized vertex
    tuples are equal.  Affinely independent points (one rank test of the
    points lifted by a trailing 1) are all extreme and are only sorted;
    otherwise each point is tested against the hull of the rest.
    """
    verts: list[Vector] = []
    for v in p.vertices:
        if v not in verts:
            verts.append(v)
    lifted = [list(v) + [Fraction(1)] for v in verts]
    basis, _ = row_reduce(lifted, [Fraction(0)] * len(lifted))
    if len(basis) == len(verts):
        return Polytope(tuple(sorted(verts)))
    i = 0
    while i < len(verts) and len(verts) > 1:
        others = verts[:i] + verts[i + 1 :]
        if polytope_contains(Polytope(tuple(others)), verts[i]):
            verts.pop(i)
        else:
            i += 1
    return Polytope(tuple(sorted(verts)))


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
    images = [Vector(sum(c * e for c, e in zip(row, v)) for row in rows) for v in p.vertices]
    return polytope_minimize(Polytope.from_vertices(images))
