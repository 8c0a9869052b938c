"""Oracles for the tests: LP-only polytope membership and minimization, and
row reduction over ``Fraction``.

Every membership question is one exact phase-1 LP over the convex weights,
and minimization tests each point against the hull of the others.  The
library answers most of these questions by row reduction; these functions
never do, so they check that shortcut.  The library's row reduction runs on
integers; ``fraction_row_reduce`` is the plain ``Fraction`` elimination it
must agree with, value for value.
"""

from __future__ import annotations

from fractions import Fraction

from credalgames.exactmath import EQUAL, Polytope, Vector, lp_feasible


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
        if lp_contains(Polytope(p.ambient_dimension, tuple(others)), verts[i]):
            verts.pop(i)
        else:
            i += 1
    return Polytope(p.ambient_dimension, tuple(sorted(verts)))


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
