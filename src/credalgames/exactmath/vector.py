"""Small dense exact-rational vectors and the linear-system solve they need."""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm

from .rational import rat


class DimensionMismatchError(ValueError):
    """Operands do not share the required dimension."""


class Vector(tuple):
    """An immutable tuple of Rationals with exact componentwise arithmetic.

    As a tuple, a vector compares lexicographically (used for deterministic
    tie-breaks) and hashes by its entries, so it can key sets and dicts.
    ``+`` and ``-`` are componentwise, never concatenation.
    """

    __slots__ = ()

    def __new__(cls, entries: Iterable[int | str | Fraction]):
        self = super().__new__(cls, map(rat, entries))
        if not self:
            raise ValueError("vector must have at least one entry")
        return self

    @property
    def dimension(self) -> int:
        return len(self)

    def _check(self, other: "Vector") -> None:
        if len(self) != len(other):
            raise DimensionMismatchError(f"dimension {len(self)} vs {len(other)}")

    def __add__(self, other: "Vector") -> "Vector":
        self._check(other)
        return Vector(a + b for a, b in zip(self, other))

    def __sub__(self, other: "Vector") -> "Vector":
        self._check(other)
        return Vector(a - b for a, b in zip(self, other))

    def dot(self, other: "Vector") -> Fraction:
        self._check(other)
        return dot(self, other)

    def is_probability(self) -> bool:
        # cleared with a trailing 1, which becomes the scale: the entries sum
        # to 1 exactly when their cleared sum is the scale
        *ints, scale = cleared([*self, 1])
        return all(c >= 0 for c in ints) and sum(ints) == scale

    def __repr__(self) -> str:
        return "Vector(%s)" % ", ".join(str(e) for e in self)

    def to_json(self) -> list[str]:
        return [str(e) for e in self]


def dot(a: Iterable[int | Fraction], b: Iterable[int | Fraction]) -> Fraction:
    """Exact sum of ``a_i * b_i`` over the shorter of the two, as a Fraction.

    The sum runs on integers: each product is a numerator and a denominator,
    and the running sum keeps the least common multiple of the denominators
    seen so far (not their product), so only the one Fraction returned is
    reduced by a gcd.  A sum of values is their dot with ``repeat(1)``.
    """
    num, den = 0, 1
    for x, y in zip(a, b):
        n = x.numerator * y.numerator
        if n:
            d = x.denominator * y.denominator
            if den % d:
                g = gcd(den, d)
                num = num * (d // g) + n * (den // g)
                den = den // g * d
            else:
                num += n * (den // d)
    return Fraction(num, den)


def unit_vector(dimension: int, index: int) -> Vector:
    return Vector(Fraction(1) if i == index else Fraction(0) for i in range(dimension))


def row_reduce(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> tuple[list[list[Fraction]], list[Fraction]] | None:
    """Reduced row echelon form of ``rows . x = rhs``, exactly.

    Returns the nonzero rows, ordered by pivot column, and their right-hand
    sides, so the row count is the rank and the rows form an identity in
    the pivot columns.  None when the system is inconsistent.  Only the
    result of ``eliminate`` on the cleared rows is read out as Fractions.
    """
    if len(rows) != len(rhs):
        raise DimensionMismatchError(f"{len(rows)} rows vs {len(rhs)} right-hand sides")
    ncols = len(rows[0]) if rows else 0
    if any(len(row) != ncols for row in rows):
        raise DimensionMismatchError("rows of the system differ in length")
    aug = [cleared([*row, b]) for row, b in zip(rows, rhs)]
    rank, d = eliminate(aug, ncols)
    if any(row[ncols] for row in aug[rank:]):
        return None
    return (
        [[Fraction(a, d) for a in row[:ncols]] for row in aug[:rank]],
        [Fraction(row[ncols], d) for row in aug[:rank]],
    )


def eliminate(rows: list[Sequence[int]], ncols: int, full: bool = True) -> tuple[int, int]:
    """Fraction-free Gauss-Jordan (Edmonds 1967, Bareiss 1968) of integer
    rows over their first ``ncols`` columns, in place: the rank and the last
    pivot ``d``.  A pivot ``p`` updates the other rows as ``(p*a - f*b) // d``
    with the previous pivot ``d``, exactly, as every entry is a minor of the
    input; the first ``rank`` rows end as ``d`` times the reduced row echelon
    form.  ``full=False`` updates only the rows below a pivot, which gives
    the rank and leaves those rows in echelon form.  Both stop once every
    row holds a pivot.
    """
    d, rank = 1, 0
    for col in range(ncols):
        if rank == len(rows):
            break
        pivot_row = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pivot, p = rows[rank], rows[rank][col]
        for r in range(0 if full else rank + 1, len(rows)):
            if r != rank:
                f = rows[r][col]
                rows[r] = [(p * a - f * b) // d for a, b in zip(rows[r], pivot)]
        d, rank = p, rank + 1
    return rank, d


def cleared(row: Sequence[int | Fraction]) -> list[int]:
    """The row of ints and Fractions times the lcm of its denominators, as
    ints; a trailing 1 returns that lcm."""
    denominators = [c.denominator for c in row]
    scale = lcm(*denominators)
    return [c.numerator * (scale // d) for c, d in zip(row, denominators)]


def solve_square_system(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> list[Fraction] | None:
    """Solve a square linear system exactly; None when singular."""
    n = len(rows)
    if len(rhs) != n or any(len(row) != n for row in rows):
        raise DimensionMismatchError("system is not square")
    reduced = row_reduce(rows, rhs)
    if reduced is None or len(reduced[0]) < n:
        return None
    return reduced[1]
