"""Finitely presented unstable modules over the mod-2 Steenrod algebra.

A module is a graded basis with a sparse action of the squares Sq^k, and
optionally a cup product table. The axioms checked by validate():

  degree shift   Sq^k maps degree d to degree d + k
  instability    Sq^k u = 0 for k > deg(u)
  square rule    Sq^(deg u) u = u cup u            (needs the cup table)
  Cartan         Sq^i(x y) = sum_j Sq^j(x) Sq^(i-j)(y)   (needs the cup table)
  Adem           Sq^a Sq^b for a < 2b expands as the usual sum

When no cup table is stored the square rule and Cartan checks are skipped and
the report says so. A cup table, when present, is read as a complete
symmetric multiplication table: pairs that are not stored multiply to zero
(every product landing above the top degree vanishes regardless).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from math import comb
from typing import Mapping

from .gf2 import F2Vector
from .report import FAIL, NOTE, Report


class UnknownClass(KeyError):
    """A class name that is not part of the module basis."""


class Sq1NotZero(ValueError):
    """Raised when an operation requires Sq^1 = 0 and the module has Sq^1 != 0."""


@dataclass(frozen=True, eq=True)
class UnstableModule:
    """Graded basis, sparse Sq table, optional cup table, top nonzero degree.

    basis entries are (name, degree) in declaration order; sq maps
    k -> {source name -> frozenset of target names}; cup maps a normalized
    (name, name) pair to a frozenset of result names, or is None when the
    product structure is unknown. These named fields are the parsed record;
    sq() and cup_product() work on vectors whose bit i is basis class i.
    """

    basis: tuple
    sq: Mapping[int, Mapping[str, frozenset]]
    cup: Mapping[tuple, frozenset] | None
    top_degree: int

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: i for i, (name, _) in enumerate(self.basis)}

    def _mask(self, names) -> int:
        return sum(1 << self.index(name) for name in names)

    @cached_property
    def _sq_rows(self) -> dict[int, dict[int, int]]:
        """k -> {bit of a source class -> mask of Sq^k of that class}."""
        return {k: {1 << self.index(u): self._mask(targets)
                    for u, targets in row.items()}
                for k, row in self.sq.items()}

    @cached_property
    def _cup_rows(self) -> dict[tuple, int]:
        """(bit, bit) -> mask of the product of two basis classes, in both
        orders; the unit acts as the identity and products above the top
        degree vanish."""
        rows: dict[tuple, int] = {}
        for (x, y), result in self.cup.items():
            if self.degree(x) + self.degree(y) <= self.top_degree:
                bx, by = 1 << self.index(x), 1 << self.index(y)
                rows[bx, by] = rows[by, bx] = self._mask(result)
        if self.unit() is not None:
            bu = 1 << self.index(self.unit())
            for i in range(len(self.basis)):
                rows[bu, 1 << i] = rows[1 << i, bu] = 1 << i
        return rows

    def degree(self, name: str) -> int:
        return self.basis[self.index(name)][1]

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownClass(name) from None

    def names(self, mask: int) -> tuple:
        """The basis classes of a mask, in declaration order."""
        return tuple(self.basis[bit.bit_length() - 1][0] for bit in _bits(mask))

    def classes_in_degree(self, d: int) -> tuple:
        return tuple(name for name, deg in self.basis if deg == d)

    def unit(self) -> str | None:
        return next((name for name, deg in self.basis if deg == 0), None)

    def basis_vector(self, name: str) -> F2Vector:
        return F2Vector(self.degree(name), 1 << self.index(name))

    def cup_product(self, v: F2Vector, w: F2Vector) -> F2Vector:
        """Bilinear extension of the stored table."""
        if self.cup is None:
            raise ValueError("module has no cup table")
        rows = self._cup_rows
        acc = 0
        for bx in _bits(v.mask):
            for by in _bits(w.mask):
                acc ^= rows.get((bx, by), 0)
        return F2Vector(v.degree + w.degree, acc)


def _bits(mask: int):
    """The set bits of a mask, lowest first, each as a one-bit int."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def sq(m: UnstableModule, k: int, v: F2Vector) -> F2Vector:
    """Apply Sq^k to a homogeneous vector. Sq^0 is the identity and
    Sq^k v = 0 for k > deg(v) or k < 0.

    >>> m = UnstableModule((("1", 0), ("h", 2), ("h2", 4)),
    ...                    {2: {"h": frozenset({"h2"})}}, None, 4)
    >>> m.names(sq(m, 2, m.basis_vector("h")).mask)
    ('h2',)
    >>> sq(m, 3, m.basis_vector("h")).is_zero()
    True
    """
    if k == 0:
        return v
    if k < 0 or k > v.degree:
        return F2Vector(v.degree + k)
    if v.mask >> len(m.basis):
        raise UnknownClass(f"bit {v.mask.bit_length() - 1} is not a basis class")
    row = m._sq_rows.get(k, {})
    acc = 0
    for bit in _bits(v.mask):
        acc ^= row.get(bit, 0)
    return F2Vector(v.degree + k, acc)


def is_sq1_zero(m: UnstableModule) -> bool:
    """Whether Sq^1 vanishes identically (true for the empty module)."""
    return not any(m.sq.get(1, {}).values())


def adem_expand(a: int, b: int) -> list[tuple[int, int]]:
    """Adem expansion of Sq^a Sq^b for 1 <= a < 2b, as (x, y) pairs meaning
    Sq^x Sq^y with Sq^0 the identity; pairs with even coefficient are dropped.

    >>> adem_expand(1, 2)
    [(3, 0)]
    >>> adem_expand(1, 1)
    []
    >>> adem_expand(2, 2)
    [(3, 1)]
    """
    if a < 1 or a >= 2 * b:
        raise ValueError(f"Sq^{a} Sq^{b} is not an admissible left side (need 1 <= a < 2b)")
    out = []
    for c in range(a // 2 + 1):
        if comb(b - c - 1, a - 2 * c) % 2:
            out.append((a + b - c, c))
    return out


def _check_names(m: UnstableModule, rep: Report) -> bool:
    known = set(m._index)
    bad = False
    for k, row in m.sq.items():
        for u, targets in row.items():
            for name in dict.fromkeys((u, *sorted(targets))):
                if name not in known:
                    rep.add("unknown-class", FAIL,
                            f"sq({k}) entry mentions unknown class {name!r}")
                    bad = True
    for pair, result in (m.cup or {}).items():
        for name in dict.fromkeys((*pair, *sorted(result))):
            if name not in known:
                rep.add("unknown-class", FAIL,
                        f"cup entry {pair} mentions unknown class {name!r}")
                bad = True
    return bad


def _shown(m: UnstableModule, v: F2Vector) -> str:
    """A vector for a report message: {'a', 'b'} in basis order, or 0."""
    if not v.mask:
        return "0"
    return "{" + ", ".join(repr(name) for name in m.names(v.mask)) + "}"


def validate(m: UnstableModule) -> Report:
    """Check every axiom the presentation can express; see the module docstring.

    Pure and idempotent. The report carries one entry per violation, plus a
    note for each check that had to be skipped. No failures means valid.
    """
    rep = Report()
    if _check_names(m, rep):
        return rep  # later checks would only cascade

    for k in sorted(m.sq):
        if k < 1:
            rep.add("degree-shift", FAIL, f"sq({k}) stored; squares start at k = 1")
            continue
        for u in sorted(m.sq[k], key=m.index):
            targets = m.sq[k][u]
            du = m.degree(u)
            for t in sorted(targets, key=m.index):
                if m.degree(t) != du + k:
                    rep.add("degree-shift", FAIL,
                            f"Sq^{k} {u} contains {t} of degree {m.degree(t)}, "
                            f"expected degree {du + k}")
            if targets and k > du:
                rep.add("instability", FAIL,
                        f"Sq^{k} {u} is nonzero but k = {k} exceeds deg({u}) = {du}")

    # Sq^k of basis class i, each computed once
    square = cache(lambda i, k: sq(m, k, F2Vector(m.basis[i][1], 1 << i)))

    if m.cup is None:
        rep.add("square-rule", NOTE, "no cup table stored; check skipped")
        rep.add("cartan", NOTE, "no cup table stored; check skipped")
    else:
        for i, (name, deg) in enumerate(m.basis):
            if deg < 1:
                continue
            left = square(i, deg)
            right = m.cup_product(square(i, 0), square(i, 0))
            if left != right:
                rep.add("square-rule", FAIL,
                        f"Sq^{deg} {name} = {_shown(m, left)} but "
                        f"{name} cup {name} = {_shown(m, right)}")
        for (x, y) in sorted(m.cup, key=lambda p: (m.index(p[0]), m.index(p[1]))):
            dx, dy = m.degree(x), m.degree(y)
            for t in sorted(m.cup[(x, y)], key=m.index):
                if m.degree(t) != dx + dy:
                    rep.add("degree-shift", FAIL,
                            f"{x} cup {y} contains {t} of degree {m.degree(t)}, "
                            f"expected degree {dx + dy}")
            prod = F2Vector(dx + dy, m._mask(m.cup[(x, y)]))
            ix, iy = m.index(x), m.index(y)
            for i in range(1, dx + dy + 1):
                left = sq(m, i, prod)
                right = F2Vector(dx + dy + i)
                for j in range(i + 1):
                    right += m.cup_product(square(ix, j), square(iy, i - j))
                if left != right:
                    rep.add("cartan", FAIL,
                            f"Sq^{i}({x} cup {y}): table gives "
                            f"{_shown(m, left)}, Cartan sum gives "
                            f"{_shown(m, right)}")

    # Both sides of an Adem relation on u vanish when u has no stored
    # square, or when b > deg u: then Sq^b u = 0, and Sq^x Sq^y u with
    # x + y = a + b and y < b has x > deg u + y. Only the other classes
    # are tried.
    squared = {bit for row in m._sq_rows.values() for bit, mask in row.items() if mask}
    for b in range(1, m.top_degree + 1):
        high = [(i, name) for i, (name, deg) in enumerate(m.basis)
                if deg >= b and 1 << i in squared]
        if not high:
            break
        for a in range(1, min(2 * b - 1, m.top_degree - b) + 1):
            expansion = adem_expand(a, b)
            for i, name in high:
                left = sq(m, a, square(i, b))
                right = F2Vector(left.degree)
                for x, y in expansion:
                    right += sq(m, x, square(i, y))
                if left != right:
                    rep.add("adem", FAIL,
                            f"Sq^{a} Sq^{b} {name} = {_shown(m, left)} "
                            f"but the Adem expansion gives {_shown(m, right)}")
    return rep
