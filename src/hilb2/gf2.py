"""Linear algebra over the two-element field on bit-packed rows.

Vectors are supported sets of named basis monomials; matrices pack each row
into a Python int, bit i standing for column i. Rank is computed by
elimination on the lowest set bit, so pivots follow the column order the
caller fixed (basis declaration order throughout this package).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

if TYPE_CHECKING:
    from .exdiv import ExClass


@dataclass(frozen=True)
class F2Vector:
    """Sum of named basis classes in one degree; the empty set is zero.

    >>> x = F2Vector(2, frozenset({"a"}))
    >>> (x + x).is_zero()
    True
    >>> sorted((x + F2Vector(2, frozenset({"b"}))).entries)
    ['a', 'b']
    """

    degree: int
    entries: frozenset = frozenset()

    def is_zero(self) -> bool:
        return not self.entries

    def monomials(self) -> frozenset:
        return self.entries

    def __add__(self, other: "F2Vector") -> "F2Vector":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise ValueError(
                f"cannot add degree {self.degree} to degree {other.degree}")
        return F2Vector(self.degree, self.entries ^ other.entries)

    def __eq__(self, other: object) -> bool:
        # zero is the zero vector of every degree
        if not isinstance(other, F2Vector):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return True
        return self.degree == other.degree and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries) if self.entries else hash(frozenset())


def _rank_of_rows(rows: Iterable[int]) -> int:
    # eliminate on the lowest set bit; one stored pivot row per pivot column
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            low = row & -row
            if low in pivots:
                row ^= pivots[low]
            else:
                pivots[low] = row
                break
    return len(pivots)


@dataclass(frozen=True)
class F2Matrix:
    """Rows over a fixed column tuple; rows[i] has bit j set iff entry (i, j) is 1.

    >>> F2Matrix((0, 1, 2), (0b011, 0b110, 0b101)).rank()
    2
    >>> F2Matrix((0, 1), (0b01, 0b10, 0b11)).rank()
    2
    """

    columns: tuple
    rows: tuple

    @classmethod
    def from_elements(cls, elements: Iterable[F2Vector | ExClass],
                      column_key: Callable | None = None) -> "F2Matrix":
        """Pack same-degree elements into a matrix, columns sorted by column_key."""
        elems = list(elements)
        keys = set()
        for el in elems:
            keys.update(el.monomials())
        columns = tuple(sorted(keys, key=column_key))
        pos = {c: i for i, c in enumerate(columns)}
        rows = tuple(sum(1 << pos[m] for m in el.monomials()) for el in elems)
        return cls(columns, rows)

    def rank(self) -> int:
        return _rank_of_rows(self.rows)


def span_dims_by_degree(elements: Iterable[F2Vector | ExClass],
                        column_key: Callable | None = None) -> dict[int, int]:
    """Dimension of the span of homogeneous elements, one entry per degree.

    Zero elements contribute nothing and degrees of dimension zero are omitted.

    >>> a = F2Vector(2, frozenset({"x"}))
    >>> b = F2Vector(2, frozenset({"y"}))
    >>> span_dims_by_degree([a, a, b])
    {2: 2}
    """
    by_degree: dict[int, list] = {}
    for el in elements:
        if el.is_zero():
            continue
        by_degree.setdefault(el.degree, []).append(el)
    return {
        d: F2Matrix.from_elements(els, column_key).rank()
        for d, els in sorted(by_degree.items())
    }
