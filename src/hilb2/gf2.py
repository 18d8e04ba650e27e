"""Linear algebra over the two-element field on bit-packed rows.

A vector is a degree and an int mask, addition is XOR, and class names
appear only where descriptors are parsed and results printed. One F2Vector
type serves H*(X; F_2) and H*(E_X; F_2): on X bit i stands for basis class i
in declaration order; on E_X bit j*N + i stands for e^j x_i, N the basis
size (see exdiv). The one elimination routine, pivots, brings rows to
echelon form on the leading set bit: rows that already have distinct
leading bits, such as the triangular kernel ladders, become pivots without
a single XOR. Its pivots count the rank, and their leading bits are exactly
the leading bits of the nonzero elements of the span. pivots_by_degree,
the one routine that groups rows by degree, serves kernel and loader alike.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class F2Vector:
    """Sum of basis classes in one degree, one bit per class; mask 0 is zero.

    >>> x = F2Vector(2, 0b01)
    >>> (x + x).is_zero()
    True
    >>> bin((x + F2Vector(2, 0b10)).mask)
    '0b11'
    """

    degree: int
    mask: int = 0

    def is_zero(self) -> bool:
        return not self.mask

    def __add__(self, other: "F2Vector") -> "F2Vector":
        if not self.mask:
            return other
        if not other.mask:
            return self
        if self.degree != other.degree:
            raise ValueError(
                f"cannot add degree {self.degree} to degree {other.degree}")
        return F2Vector(self.degree, self.mask ^ other.mask)

    def __eq__(self, other: object) -> bool:
        # zero is the zero vector of every degree
        if not isinstance(other, F2Vector):
            return NotImplemented
        return self.mask == other.mask and (
            not self.mask or self.degree == other.degree)

    def __hash__(self) -> int:
        return hash(self.mask)


def pivots(rows: Iterable[int]) -> dict[int, int]:
    """Echelon form of int rows: leading bit (bit_length) -> pivot row.

    The keys are exactly the leading bits of the nonzero elements of the
    span, since a sum of pivots leads where its top pivot does, and their
    number is the rank. A negative row raises ValueError.

    >>> sorted(pivots([0b011, 0b110, 0b101]))
    [2, 3]
    >>> len(pivots([0b01, 0b10, 0b11]))
    2
    """
    out: dict[int, int] = {}
    for row in rows:
        if row < 0:
            raise ValueError(f"row {row} is negative, not a mask of set bits")
        while row:
            lead = row.bit_length()
            pivot = out.get(lead)
            if pivot is None:
                out[lead] = row
                break
            row ^= pivot
    return out


def pivots_by_degree(rows: Iterable[tuple[int, int]]) -> dict[int, dict]:
    """Echelon form (see pivots) of the nonzero (degree, mask) rows of each
    degree, degrees ascending; a degree with no nonzero row is omitted.

    >>> pivots_by_degree([(4, 0b10), (2, 0b11), (2, 0b01), (6, 0)])
    {2: {2: 3, 1: 1}, 4: {2: 2}}
    """
    by_degree = defaultdict(list)
    for degree, mask in rows:
        if mask:
            by_degree[degree].append(mask)
    return {d: pivots(by_degree[d]) for d in sorted(by_degree)}


def span_dims_by_degree(rows: Iterable[tuple[int, int]]) -> dict[int, int]:
    """The ranks of pivots_by_degree: degree -> dimension of the span.

    >>> span_dims_by_degree([(2, 0b01), (2, 0b01), (2, 0b10), (4, 0)])
    {2: 2}
    """
    return {d: len(p) for d, p in pivots_by_degree(rows).items()}
