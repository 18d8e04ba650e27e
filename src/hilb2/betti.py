"""Betti numbers of the symmetric square, the configuration space, and the
Hilbert square, plus integral homology of the symmetric square as a
GroupProfile, a named tuple that keeps only the degrees with a nonzero
free rank or Z/2 count.

Every table here but the exact-sequence route depends only on the Betti
row b_k of X, following Macdonald's count for symmetric products. Each is a
sum of the two degree counts in spaces, so its cost follows the 2n + 1
degrees of X rather than the basis size:

  pair_counts     unordered pairs of distinct classes, the coefficients of
                  (P(t)^2 - P(t^2)) / 2 for P(t) = sum_k b_k t^k
  ladder_counts   b_v classes in each degree of a ladder chosen per degree v,
                  added to a copy of a base count such as pair_counts

The closed form (valid when Sq^1 = 0) counts the pairs, the diagonal pair
of each even class, and the ladder v + 2p for 1 <= p <= n-1. The exact
sequence also uses the kernel K computed from the Sq action:

  dim H^m(Hilb) = (E[m-2] - K[m-2]) + (C[m] - K[m-1])

where E, C are the tables for the exceptional divisor and the complement of
the diagonal in the symmetric square.
"""

from collections import namedtuple

from . import kernel, steenrod
from .exdiv import betti_exceptional
from .spaces import BettiTable, ManifoldDescriptor, ladder_counts, pair_counts
from .steenrod import Sq1NotZero


class TorsionFlagRequired(ValueError):
    """The integral answer is only implemented for torsion-free input."""


class NegativeRank(ArithmeticError):
    """Exact-sequence bookkeeping produced a negative dimension; the
    descriptor's Sq data is inconsistent with the stated Betti numbers."""


class GroupProfile(namedtuple("GroupProfile", "label top groups")):
    """Finitely generated 2-local homology: degree -> (free rank, Z/2 count)."""

    __slots__ = ()

    def __new__(cls, label: str, top: int, groups):
        clean = {k: (f, t) for k, (f, t) in groups.items() if f or t}
        return super().__new__(cls, label, top, clean)

    _make = classmethod(lambda cls, values: cls(*values))  # as in BettiTable

    def mod2_dims(self) -> dict[int, int]:
        """Mod-2 dimensions by universal coefficients: free + torsion from
        this degree and the one below."""
        out: dict[int, int] = {}
        get, zero = self.groups.get, (0, 0)
        for k in range(self.top + 1):
            free, tors = get(k, zero)
            v = free + tors + get(k - 1, zero)[1]
            if v:
                out[k] = v
        return out


def _even_diagonal(v: int) -> tuple:
    """The diagonal pair (i, i) of a class of degree v, kept for even v."""
    return () if v % 2 else (2 * v,)


def betti_config(d: ManifoldDescriptor) -> BettiTable:
    """The complement of the diagonal in the symmetric square: unordered
    pairs of distinct basis classes, plus one class in degree 2 v_i + j for
    each i and 0 <= j <= 2n - 1 - v_i."""
    dims = ladder_counts(d, lambda v: range(2 * v, v + 2 * d.n), pair_counts(d))
    return BettiTable("config", 4 * d.n - 1, dims, noncompact=not d.compact)


def betti_sym2_f2(d: ManifoldDescriptor) -> BettiTable:
    """Mod-2 homology of the symmetric square: unordered pairs of distinct
    classes, one class in every degree v_i + 2 .. 2 v_i for v_i > 0, and the
    diagonal point class for v_i = 0."""
    dims = ladder_counts(d, lambda v: range(v + 2, 2 * v + 1) if v else (0,),
                         pair_counts(d))
    return BettiTable("sym2", 4 * d.n, dims, noncompact=not d.compact)


def integral_sym2(d: ManifoldDescriptor) -> GroupProfile:
    """Integral homology of the symmetric square of a torsion-free X:
    a Z for every unordered pair i <= j except odd diagonals, and for each
    class of degree v a Z/2 in degrees v + 2, v + 4, ... below 2v.

    >>> import json
    >>> from hilb2.spaces import load_descriptor
    >>> text = json.dumps({
    ...     "name": "s4", "complex_dimension": 2, "compact": True,
    ...     "classes": [{"name": "1", "degree": 0}, {"name": "v", "degree": 4}],
    ...     "integral": {"two_torsion_free": True, "torsion_free": True,
    ...                  "even_degrees_only": True}})
    >>> sorted(integral_sym2(load_descriptor(text)).groups.items())
    [(0, (1, 0)), (4, (1, 0)), (6, (0, 1)), (8, (1, 0))]
    """
    if not d.integral.torsion_free:
        raise TorsionFlagRequired(
            f"{d.name}: integral_sym2 needs integral.torsion_free = true")
    free = ladder_counts(d, _even_diagonal, pair_counts(d))
    tors = ladder_counts(d, lambda v: range(v + 2, 2 * v, 2))
    groups = {k: (free.get(k, 0), tors.get(k, 0))
              for k in free.keys() | tors.keys()}
    return GroupProfile("sym2", 4 * d.n, groups)


def betti_hilb2_exact(d: ManifoldDescriptor) -> BettiTable:
    """Hilbert-square Betti numbers assembled from the localization exact
    sequence; works for any valid descriptor."""
    E = betti_exceptional(d)
    C = betti_config(d)
    K = kernel.kernel_dimensions(d)
    dims: dict[int, int] = {}
    e_dim, c_dim, k_dim = E.dims.get, C.dims.get, K.get
    for m in range(4 * d.n + 1):
        pushed = e_dim(m - 2, 0) - k_dim(m - 2, 0)
        restricted = c_dim(m, 0) - k_dim(m - 1, 0)
        if pushed < 0 or restricted < 0:
            raise NegativeRank(
                f"degree {m}: image ranks {pushed} and {restricted}; "
                "kernel dimensions exceed the ambient table")
        if pushed + restricted:
            dims[m] = pushed + restricted
    return BettiTable("hilb2", 4 * d.n, dims, noncompact=not d.compact)


def betti_hilb2_closed(d: ManifoldDescriptor) -> BettiTable:
    """Closed-form Hilbert-square Betti numbers; requires Sq^1 = 0.

    The gate really is Sq^1 = 0 on mod-2 cohomology, not the integral
    two_torsion_free flag: elliptic_y has Z/4 torsion (so the flag is false)
    yet Sq^1 = 0, and the closed form applies.
    """
    if not steenrod.is_sq1_zero(d.module):
        raise Sq1NotZero(f"{d.name}: closed form requires Sq^1 = 0")
    dims = ladder_counts(d, lambda v: range(v + 2, v + 2 * d.n, 2),
                         ladder_counts(d, _even_diagonal, pair_counts(d)))
    return BettiTable("hilb2", 4 * d.n, dims, noncompact=not d.compact)

