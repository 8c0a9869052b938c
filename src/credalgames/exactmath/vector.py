"""Small dense exact-rational vectors and the linear-system solve they need."""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction

from .rational import rat


class DimensionMismatchError(ValueError):
    """Operands do not share the required dimension."""


class Vector:
    """An immutable tuple of Rationals with exact componentwise arithmetic.

    Vectors compare lexicographically (used for deterministic tie-breaks)
    and hash by their entries, so they can key sets and dicts.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[int | str | Fraction]):
        object.__setattr__(self, "entries", tuple(rat(e) for e in entries))
        if not self.entries:
            raise ValueError("vector must have at least one entry")

    @property
    def dimension(self) -> int:
        return len(self.entries)

    def __setattr__(self, name, value):
        raise AttributeError("Vector is immutable")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, index: int) -> Fraction:
        return self.entries[index]

    def _check(self, other: "Vector") -> None:
        if self.dimension != other.dimension:
            raise DimensionMismatchError(
                f"dimension {self.dimension} vs {other.dimension}"
            )

    def __add__(self, other: "Vector") -> "Vector":
        self._check(other)
        return Vector(a + b for a, b in zip(self.entries, other.entries))

    def __sub__(self, other: "Vector") -> "Vector":
        self._check(other)
        return Vector(a - b for a, b in zip(self.entries, other.entries))

    def scale(self, factor: int | str | Fraction) -> "Vector":
        f = rat(factor)
        return Vector(f * a for a in self.entries)

    def dot(self, other: "Vector") -> Fraction:
        self._check(other)
        return sum((a * b for a, b in zip(self.entries, other.entries)), Fraction(0))

    def total(self) -> Fraction:
        return sum(self.entries, Fraction(0))

    def is_probability(self) -> bool:
        return all(e >= 0 for e in self.entries) and self.total() == 1

    def __eq__(self, other) -> bool:
        return isinstance(other, Vector) and self.entries == other.entries

    def __lt__(self, other: "Vector") -> bool:
        return self.entries < other.entries

    def __le__(self, other: "Vector") -> bool:
        return self.entries <= other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return "Vector(%s)" % ", ".join(str(e) for e in self.entries)

    def to_json(self) -> list[str]:
        return [str(e) for e in self.entries]


def unit_vector(dimension: int, index: int) -> Vector:
    return Vector(Fraction(1) if i == index else Fraction(0) for i in range(dimension))


def row_reduce(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> tuple[list[list[Fraction]], list[Fraction]] | None:
    """Reduced row echelon form of ``rows . x = rhs``, exactly.

    Returns the nonzero rows, ordered by pivot column, and their right-hand
    sides, so the row count is the rank and the rows form an identity in
    the pivot columns.  None when the system is inconsistent.
    """
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
