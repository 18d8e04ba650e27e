"""Classes on the exceptional divisor E of the Hilbert square of X.

E is the projectivized cotangent bundle of the n-fold X, so its mod-2
cohomology is a free module over that of X on 1, e, ..., e^(n-1), where e is
the hyperplane class. An ExClass stores one homogeneous element as the tuple
of its coefficients c_0, ..., c_(n-1), meaning sum_j e^j c_j.

The boundary of the punctured symmetric square of a tubular neighbourhood of
a closed Z in X with mod-2 Thom class u of degree r, and of its double cover
(b is the degree-1 class of the cover), restrict to E as the ladders

  boundary_no_b(u),   r = 2a:    e^(a-1) Sq^1 u + e^(a-2) Sq^3 u + ... + Sq^(2a-1) u
  boundary_no_b(u),   r = 2a+1:  e^a u + e^(a-1) Sq^2 u + ... + Sq^(2a) u
  boundary_with_b(u), r = 2a:    e^a u + e^(a-1) Sq^2 u + ... + Sq^(2a) u
  boundary_with_b(u), r = 2a+1:  e^a Sq^1 u + e^(a-1) Sq^3 u + ... + Sq^(2a+1) u

in degrees 2r - 1 and 2r. For even r the with-b ladder is also the
restriction to E of the fundamental class of the Hilbert square of Z inside
that of X (hilb_restriction). Empty ladders (r = 0, or r = 2n where the
ambient group vanishes) give the zero class.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import steenrod
from .gf2 import F2Vector
from .spaces import BettiTable, ManifoldDescriptor, ladder_counts


class OutOfRange(ValueError):
    """Multiplication by e would need the e^n reduction, which requires
    Chern class data this presentation does not carry."""


@dataclass(frozen=True)
class ExClass:
    """Homogeneous element of H*(E;F2): coefficients of 1, e, ..., e^(n-1)."""

    degree: int
    coeffs: tuple  # n F2Vectors, coeffs[j] in degree self.degree - 2j

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def monomials(self) -> frozenset:
        return frozenset((j, name) for j, c in enumerate(self.coeffs)
                         for name in c.entries)

    def coefficient(self, j: int) -> F2Vector:
        return self.coeffs[j]

    def leading_power(self) -> int | None:
        """Highest e-power carrying a nonzero coefficient; None when zero."""
        for j in range(len(self.coeffs) - 1, -1, -1):
            if not self.coeffs[j].is_zero():
                return j
        return None

    def __add__(self, other: "ExClass") -> "ExClass":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree or len(self.coeffs) != len(other.coeffs):
            raise ValueError("can only add ExClasses of one degree and rank")
        return ExClass(self.degree,
                       tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExClass):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return True
        return self.degree == other.degree and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.monomials())


def zero_class(d: ManifoldDescriptor, degree: int) -> ExClass:
    return ExClass(degree, tuple(F2Vector(degree - 2 * j, frozenset())
                                 for j in range(d.n)))


def from_base(d: ManifoldDescriptor, v: F2Vector) -> ExClass:
    """The pullback e^0 * v of a class on X."""
    tail = tuple(F2Vector(v.degree - 2 * j, frozenset()) for j in range(1, d.n))
    return ExClass(v.degree, (v,) + tail)


def e_multiply(c: ExClass) -> ExClass:
    """Multiply by e, shifting every coefficient one power up.

    The top coefficient must be zero: rewriting e^n in terms of lower powers
    needs Chern classes of X, which a descriptor does not carry, so a nonzero
    carry raises OutOfRange instead of guessing.
    """
    n = len(c.coeffs)
    if not c.coeffs[n - 1].is_zero():
        raise OutOfRange(
            f"e * (e^{n - 1} * {sorted(c.coeffs[n - 1].entries)}) leaves the "
            f"stored range; the e^{n} reduction is not available")
    return ExClass(c.degree + 2, (F2Vector(c.degree + 2, frozenset()),)
                   + c.coeffs[:n - 1])


def _ladder(d: ManifoldDescriptor, u: F2Vector, top_power: int,
            first_sq: int, degree: int) -> ExClass:
    """sum_{i=0}^{top_power} e^(top_power - i) Sq^(first_sq + 2i) u."""
    m = d.module
    coeffs = [F2Vector(degree - 2 * j, frozenset()) for j in range(d.n)]
    for i in range(top_power + 1):
        power = top_power - i
        val = steenrod.sq(m, first_sq + 2 * i, u)
        if val.is_zero():
            continue
        if power >= d.n:
            # only reachable for deg(u) = 2n, where the whole group
            # H^(4n)(E) of a (4n-2)-manifold vanishes
            if degree > 4 * d.n - 2:
                return zero_class(d, degree)
            raise OutOfRange(f"ladder term e^{power} exceeds e^{d.n - 1}")
        coeffs[power] = coeffs[power] + val
    return ExClass(degree, tuple(coeffs))


def boundary_no_b(d: ManifoldDescriptor, u: F2Vector) -> ExClass:
    """Boundary of the punctured symmetric square class, degree 2 deg(u) - 1.

    >>> from hilb2.catalog import catalog_get
    >>> en = catalog_get("enriques_x")
    >>> t = en.module.basis_vector("t")
    >>> boundary_no_b(en, t) == from_base(en, t)
    True
    >>> boundary_no_b(en, en.module.basis_vector("1")).is_zero()
    True
    """
    r = u.degree
    a = r // 2
    if r % 2 == 0:
        return _ladder(d, u, a - 1, 1, 2 * r - 1)
    return _ladder(d, u, a, 0, 2 * r - 1)


def boundary_with_b(d: ManifoldDescriptor, u: F2Vector) -> ExClass:
    """Boundary of the same class twisted by the double cover, degree 2 deg(u).

    >>> from hilb2.catalog import catalog_get
    >>> en = catalog_get("enriques_x")
    >>> t2 = en.module.basis_vector("t2")
    >>> boundary_with_b(en, en.module.basis_vector("t")) == from_base(en, t2)
    True
    """
    r = u.degree
    a = r // 2
    if r % 2 == 0:
        return _ladder(d, u, a, 0, 2 * r)
    return _ladder(d, u, a, 1, 2 * r)


def hilb_restriction(d: ManifoldDescriptor, u: F2Vector) -> ExClass:
    """Restriction to E of the Hilbert-square class of a closed submanifold
    with Thom class u; defined for even deg(u) only, where it coincides with
    boundary_with_b(u)."""
    if u.degree % 2:
        raise ValueError("hilb_restriction needs an even-degree class")
    return boundary_with_b(d, u)


def betti_exceptional(d: ManifoldDescriptor) -> BettiTable:
    """Mod-2 Betti numbers of E: n shifted copies of those of X."""
    dims = ladder_counts(d, lambda v: range(v, v + 2 * d.n, 2))
    return BettiTable("exceptional", 4 * d.n - 2, dims, noncompact=not d.compact)


def format_exclass(c: ExClass, unit: str | None = None) -> str:
    """Render as e-power terms, leading power first: 'e^2*h + e*(a+b) + c'.

    The unit coefficient prints as a bare power of e.
    """
    if c.is_zero():
        return "0"
    parts = []
    for j in range(len(c.coeffs) - 1, -1, -1):
        names = sorted(c.coeffs[j].entries)
        if not names:
            continue
        e_part = "" if j == 0 else ("e" if j == 1 else f"e^{j}")
        if unit is not None and names == [unit] and j > 0:
            parts.append(e_part)
            continue
        body = names[0] if len(names) == 1 else "(" + "+".join(names) + ")"
        parts.append(f"{e_part}*{body}" if e_part else body)
    return " + ".join(parts)
