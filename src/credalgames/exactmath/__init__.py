"""Exact rational arithmetic, LP solving, and V-represented polytopes."""

from .linprog import (
    EQUAL,
    GREATER_EQUAL,
    INFEASIBLE,
    LESS_EQUAL,
    OPTIMAL,
    UNBOUNDED,
    Constraint,
    LinearProgram,
    LpSolution,
    lp_feasible,
    lp_solve,
)
from .polytope import (
    Polytope,
    affine_image,
    polytope_contains,
    polytope_minimize,
)
from .rational import approx_decimal, rat, read_rational
from .record import Record
from .vector import (
    DimensionMismatchError,
    Vector,
    dot,
    row_reduce,
    solve_square_system,
    unit_vector,
)

__all__ = [
    "Constraint",
    "DimensionMismatchError",
    "EQUAL",
    "GREATER_EQUAL",
    "INFEASIBLE",
    "LESS_EQUAL",
    "LinearProgram",
    "LpSolution",
    "OPTIMAL",
    "Polytope",
    "Record",
    "UNBOUNDED",
    "Vector",
    "affine_image",
    "approx_decimal",
    "dot",
    "lp_feasible",
    "lp_solve",
    "polytope_contains",
    "polytope_minimize",
    "rat",
    "read_rational",
    "row_reduce",
    "solve_square_system",
    "unit_vector",
]
