"""Linear algebra over the two-element field on bit-packed rows.

A vector is a plain (degree, mask) pair, an int mask of basis classes in
one degree: addition is XOR of the masks, (m, 0) is the zero of degree m,
and class names appear only where descriptors are parsed and results
printed. The one pair serves H*(X; F_2) and H*(E_X; F_2): on X bit i stands
for basis class i in declaration order; on E_X bit j*N + i stands for
e^j x_i, N the basis size (see exdiv). The one elimination routine,
pivots, brings rows to echelon form on the leading set bit: rows that
already have distinct leading bits, such as the triangular kernel ladders,
become pivots without a single XOR. Its pivots count the rank, and their
leading bits are exactly the leading bits of the nonzero elements of the
span. Its grouped rank, span_dims_by_degree, serves the loader's rank
checks; the kernel groups its generators by degree and reduces each alone.
"""

from collections.abc import Iterable


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


def span_dims_by_degree(rows: Iterable[tuple[int, int]]) -> dict[int, int]:
    """degree -> rank (see pivots) of the (degree, mask) rows of that degree,
    degrees ascending; a degree with no nonzero row is omitted.

    >>> span_dims_by_degree([(4, 0b10), (2, 0b11), (2, 1), (2, 0b10), (6, 0)])
    {2: 2, 4: 1}
    """
    by_degree: dict[int, list[int]] = {}
    for degree, mask in rows:
        if mask:
            by_degree.setdefault(degree, []).append(mask)
    return {d: len(pivots(by_degree[d])) for d in sorted(by_degree)}
