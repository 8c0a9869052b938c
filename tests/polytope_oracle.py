"""LP-only polytope membership and minimization, the oracle for the tests.

Every membership question is one exact phase-1 LP over the convex weights,
and minimization tests each point against the hull of the others.  The
library answers most of these questions by row reduction; these functions
never do, so they check that shortcut.
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
