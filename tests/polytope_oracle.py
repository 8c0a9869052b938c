"""Oracles for the tests: LP-only polytope membership, minimization and
equality, the membership loop that once decided rectangularity, and row
reduction over ``Fraction``.

Every membership question is one exact phase-1 LP over the convex weights,
and minimization tests each point against the hull of the others.  The
library minimizes most point sets by row reduction; these functions never
do, so they check that shortcut.  The library's row reduction runs on
integers; ``fraction_row_reduce`` is the plain ``Fraction`` elimination it
must agree with, value for value.
"""

from __future__ import annotations

from fractions import Fraction

from credalgames.beliefs import CredalSet, Filtration, rectangular_hull
from credalgames.exactmath import EQUAL, DimensionMismatchError, Polytope, Vector, lp_feasible


def lp_contains(p: Polytope, x: Vector) -> bool:
    """x is a convex combination of p's vertices, decided by one LP."""
    verts = p.vertices
    if x in verts:
        return True
    if len(verts) == 1:
        return False
    n = len(verts)
    constraints = [
        ([v[coord] for v in verts], EQUAL, x[coord]) for coord in range(p.ambient_dimension)
    ]
    constraints.append(([Fraction(1)] * n, EQUAL, Fraction(1)))
    return lp_feasible(constraints, n) is not None


def lp_minimize(p: Polytope) -> Polytope:
    """The sorted extreme points: drop each point in the hull of the rest."""
    verts: list[Vector] = []
    for v in p.vertices:
        if v not in verts:
            verts.append(v)
    i = 0
    while i < len(verts) and len(verts) > 1:
        others = verts[:i] + verts[i + 1 :]
        if lp_contains(Polytope(tuple(others)), verts[i]):
            verts.pop(i)
        else:
            i += 1
    return Polytope(tuple(sorted(verts)))


def polytope_equal(p: Polytope, q: Polytope) -> bool:
    """Hull equality: every vertex of each polytope lies in the other."""
    if p.ambient_dimension != q.ambient_dimension:
        raise DimensionMismatchError("polytopes live in different dimensions")
    if set(p.vertices) == set(q.vertices):
        return True
    return all(lp_contains(q, v) for v in p.vertices) and all(
        lp_contains(p, v) for v in q.vertices
    )


def membership_witness(c: CredalSet, f: Filtration) -> Vector | None:
    """The first rectangular-hull vertex outside c by a membership test, or
    None when the hull stays inside c."""
    for v in rectangular_hull(c, f).vertices:
        if not lp_contains(c.set, v):
            return v
    return None


def fraction_row_reduce(rows, rhs):
    """Reduced row echelon form of ``rows . x = rhs`` by Gauss-Jordan over
    ``Fraction``: the nonzero rows by pivot column and their right-hand
    sides, or None when the system is inconsistent."""
    aug = [[Fraction(c) for c in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    ncols = len(aug[0]) - 1 if aug else 0
    rank = 0
    for col in range(ncols):
        pivot_row = next((r for r in range(rank, len(aug)) if aug[r][col] != 0), None)
        if pivot_row is None:
            continue
        aug[rank], aug[pivot_row] = aug[pivot_row], aug[rank]
        pivot = aug[rank][col]
        aug[rank] = [c / pivot for c in aug[rank]]
        for r in range(len(aug)):
            if r != rank and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[rank])]
        rank += 1
    if any(row[ncols] != 0 for row in aug[rank:]):
        return None
    return [row[:ncols] for row in aug[:rank]], [row[ncols] for row in aug[:rank]]
