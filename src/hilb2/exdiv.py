"""Classes on the exceptional divisor E of the Hilbert square of X.

E is the projectivized cotangent bundle of the n-fold X, so its mod-2
cohomology is a free module over that of X on 1, e, ..., e^(n-1), where e is
the hyperplane class. A class on X or on E is one plain (degree, mask) pair,
as in gf2: an element of H^m(E) is (m, mask) with bit j*N + i standing for
e^j x_i, N the basis size of H*(X; F_2), and (m, 0) is its zero. The block
of N bits at e-power j is the coefficient c_j of sum_j e^j c_j, a class of
degree m - 2j on X, so a class of X has the same bits on E.

The boundary of the punctured symmetric square of a tubular neighbourhood of
a closed Z in X with mod-2 Thom class u of degree r, and of its double cover
(b is the degree-1 class of the cover), restrict to E as ladders of one
shape. For a square parity s in {0, 1} and t = (r - s) // 2,

  L_s(u) = e^t Sq^s u + e^(t-1) Sq^(s+2) u + ... + Sq^(s+2t) u

lies in degree r + s + 2t, and ladder(d, u, s) computes it. The boundary
twisted by the cover is L_s(u) for s = r mod 2, in degree 2r; the plain
boundary is L_s(u) for the other parity, in degree 2r - 1. For even r the
twisted ladder L_0(u) is also the restriction to E of the fundamental class
of the Hilbert square of Z inside that of X (hilb_restriction). Empty
ladders (r = 0 with s = 1, or r = 2n with s = 0, where the ambient group
vanishes) give the zero class (m, 0) of their degree.

The bit layout is this module's alone: other modules read a class on E
through coefficient, its one checked reader, and leading_power. The one
exception is kernel._witness, which reads through the unchecked
_coefficient: corollary_check also takes parse-only tables whose squares
break grading, and coefficient would reject the blocks of their witnesses.
While no e-power reaches n, multiplying by e^j follows the shift rule
e^j (m, mask) = (m + 2j, mask << j*N): the bits move up j blocks of N.
shifted_ladders yields each nonzero ladder once, at j = 0, with the
number of its shifts e^j L_s(u), 0 <= j <= n - 1 - s - t, that are kernel
generators, which the kernel expands by that rule. A class with no stored
square needs no ladder computation: its only nonzero ladder is e^t u.
"""

from collections.abc import Iterator

from . import steenrod
from .spaces import BettiTable, ManifoldDescriptor, ladder_counts


def coefficient(d: ManifoldDescriptor, c: tuple, j: int) -> tuple:
    """The coefficient of e^j in c, a class of degree deg(c) - 2j on X;
    zero for j < 0 and for j >= n. The one checked reader of a class on E:
    a negative mask, a bit at or above n*N or a class of the block outside
    its degree raises UnknownClass."""
    steenrod._check_mask(c[1], d.n * len(d.module.basis), "a class of E")
    block = _coefficient(d, c, j)
    steenrod._check_vector(d.module, block)
    return block


def _coefficient(d: ManifoldDescriptor, c: tuple, j: int) -> tuple:
    """coefficient without its checks, for a class the kernel built."""
    width = len(d.module.basis)
    low = c[1] >> j * width if j >= 0 else 0
    return c[0] - 2 * j, low & ((1 << width) - 1)


def leading_power(d: ManifoldDescriptor, mask: int) -> int:
    """The highest e-power with a nonzero coefficient in the nonzero class
    with this mask."""
    return (mask.bit_length() - 1) // len(d.module.basis)


def _ladder(d: ManifoldDescriptor, u: tuple, s: int) -> tuple:
    """L_s(u) = sum_{i=0}^{t} e^(t - i) Sq^(s + 2i) u, t = (deg(u) - s) // 2,
    in degree deg(u) + s + 2t.

    The stored squares of u are read once, through steenrod._squares_of,
    so the cost follows them and not the length of the ladder. A ladder
    above the top degree 4n - 2 of E is zero; otherwise 4t <= degree <=
    4n - 2, so every term has e-power t - i <= t <= n - 1. u is not
    checked here: ladder checks it (steenrod._check_vector), and
    shifted_ladders passes basis classes in their own degrees.
    """
    m = d.module
    width = len(m.basis)
    r, bits = u
    t = (r - s) // 2
    degree = r + s + 2 * t
    if degree > 4 * d.n - 2:
        return degree, 0
    mask = bits << t * width if not s and t >= 0 else 0  # Sq^0 u = u
    # 1 <= k = s + 2i <= deg(u), so 0 <= i <= t
    for k, val in steenrod._squares_of(m.sq, bits, r).items():
        if k % 2 == s:
            mask |= val << (t - (k - s) // 2) * width
    return degree, mask


def shifted_ladders(d: ManifoldDescriptor
                    ) -> Iterator[tuple[int, int, int, int, int]]:
    """(i, s, degree, mask, count) for each nonzero ladder L_s(x_i) =
    (degree, mask), x_i in basis order, s inner; its shifts e^j L_s(x_i),
    0 <= j < count = n - s - t, are (degree + 2j, mask << j*N).

    s = 1 only when the module stores an odd square, since the odd-square
    ladders read odd squares alone and are zero without one. A class with
    no stored square row takes a direct path, without _ladder: only Sq^0
    acts on it, so L_0(x_i) = e^t x_i (zero when t >= n) and L_1(x_i) = 0.
    The top e-power of e^j L_s(x_i) stays below n, so no e^n carry can
    occur.
    """
    m = d.module
    n, width = d.n, len(m.basis)
    parities = (0, 1) if any(k % 2 for row in m.sq.values() for k in row) else (0,)
    for i, (_, deg) in enumerate(m.basis):
        if i not in m.sq:
            t = deg // 2
            if t < n:
                yield i, 0, deg + 2 * t, 1 << i + t * width, n - t
            continue
        for s in parities:
            degree, mask = _ladder(d, (deg, 1 << i), s)
            if mask:
                yield i, s, degree, mask, n - s - (deg - s) // 2


def ladder(d: ManifoldDescriptor, u: tuple, s: int) -> tuple:
    """L_s(u) for a square parity s in {0, 1}, in degree deg(u) + s + 2t.

    The boundary of the punctured symmetric square class is s = deg u + 1
    mod 2, in degree 2 deg(u) - 1; the boundary twisted by the double
    cover is s = deg u mod 2, in degree 2 deg(u). An s outside {0, 1}
    raises ValueError, and a mask that is not a set of basis classes of
    the pair's degree raises UnknownClass, here and in hilb_restriction.

    >>> from hilb2.catalog import catalog_get
    >>> en = catalog_get("enriques_x")
    >>> t = en.module.basis_vector("t")
    >>> ladder(en, t, 0) == t
    True
    >>> ladder(en, t, 1) == en.module.basis_vector("t2")
    True
    >>> ladder(en, en.module.basis_vector("1"), 1)
    (-1, 0)
    """
    if s not in (0, 1):
        raise ValueError(f"the square parity s is 0 or 1, not {s!r}")
    steenrod._check_vector(d.module, u)
    return _ladder(d, u, s)


def hilb_restriction(d: ManifoldDescriptor, u: tuple) -> tuple:
    """Restriction to E of the Hilbert-square class of a closed submanifold
    with Thom class u; defined for even deg(u) only, where it is the
    boundary twisted by the double cover, ladder(d, u, 0)."""
    if u[0] % 2:
        raise ValueError("hilb_restriction needs an even-degree class")
    return ladder(d, u, 0)


def betti_exceptional(d: ManifoldDescriptor) -> BettiTable:
    """Mod-2 Betti numbers of E: n shifted copies of those of X."""
    dims = ladder_counts(d, lambda v: range(v, v + 2 * d.n, 2))
    return BettiTable("exceptional", 4 * d.n - 2, dims, noncompact=not d.compact)


def format_exclass(d: ManifoldDescriptor, c: tuple) -> str:
    """Render as e-power terms, leading power first: 'e^2*h + e*(a+b) + c'.

    Names within a coefficient are sorted; the unit coefficient of d prints
    as a bare power of e. Every nonzero block is read through coefficient,
    so a class that it rejects raises UnknownClass here too.
    """
    width = len(d.module.basis)
    rest = c[1]
    if not rest:
        return "0"
    parts = []
    while rest:  # visit only the nonzero e-powers, highest first
        j = leading_power(d, rest)
        rest &= (1 << j * width) - 1
        coeff = coefficient(d, c, j)[1]
        e_part = "" if j == 0 else ("e" if j == 1 else f"e^{j}")
        if coeff == d.module._unit_bit and j > 0:
            parts.append(e_part)
            continue
        names = sorted(d.module.names(coeff))
        body = names[0] if len(names) == 1 else "(" + "+".join(names) + ")"
        parts.append(f"{e_part}*{body}" if e_part else body)
    return " + ".join(parts)
