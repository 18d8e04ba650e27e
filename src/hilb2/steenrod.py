"""Finitely presented unstable modules over the mod-2 Steenrod algebra.

A module is a graded basis with a sparse action of the squares Sq^k, and
optionally a cup product table, held in an UnstableModule: a named tuple
with read-only fields, whose lookups built from the basis are cached
properties in its instance __dict__. The axioms checked by validate():

  degree shift   Sq^k maps degree d to degree d + k
  instability    Sq^k u = 0 for k > deg(u)
  square rule    Sq^(deg u) u = u cup u            (needs the cup table)
  Cartan         Sq^i(x y) = sum_j Sq^j(x) Sq^(i-j)(y)   (needs the cup table)
  Adem           Sq^a Sq^b = sum_c C(b-c-1, a-2c) Sq^(a+b-c) Sq^c for a < 2b

Class i of the basis is bit i of an int mask, and a vector is a plain
(degree, mask) pair, the mask of its classes; (m, 0) is the zero vector of
degree m. The square and cup tables are keyed by class index, and each
stored row is the mask of Sq^k of a basis class or of the product of two
basis classes. Sq^0 and products with the unit are implicit, so a class
with no stored square or product has no row. The unit, the first class
of degree 0 in _degrees (the basis grouped by degree), is read by its bit.
Names appear only at the edges: basis_vector(name) reads one, names(mask)
and unit() print them, and an unknown name, a negative mask or a bit
outside the basis raises UnknownClass (_check_mask). sq, ladder and
coefficient also raise it for a class outside the degree of the (degree,
mask) pair (_check_vector). Its bitmaps hold each degree's classes from its
first class to its last: N bits in all when each degree's classes are
declared together.

When no cup table is stored the square rule and Cartan checks are skipped and
the report says so. A cup table, when present, is read as a complete
symmetric multiplication table: pairs that are not stored multiply to zero,
and a stored product above the top degree reads as zero. cup_product checks
its input and treats the unit as the identity; the axiom checks multiply
through the stored table only.

Validation visits only the stored squares and cup entries, not (2n)^3 or
the basis, though a stored mask that holds class i is i + 1 bits wide. The
Cartan check is one pass over the stored products that covers every pair
of classes but the unit, stored or not; above CARTAN_BUDGET times the
terms the stored pairs can have, it reports one FAIL instead of running.
The square rule visits the classes with a stored row, and Adem only the
ring generators among them, as the Adem ideal is a Hopf ideal (Milnor,
1958); a relation of total s sums the stored values of s whose coefficient
is odd, a bit test by Lucas's theorem (_adem_odd), with no memo.
"""

from collections import namedtuple
from functools import cached_property

from .gf2 import pivots
from .report import FAIL, NOTE, Report


# safety code, not a knob: Cartan terms per term of the stored pairs, at most
# 2 when every pair the products reach is stored (as on P^n and products)
CARTAN_BUDGET = 16


class UnknownClass(KeyError):
    """A class name that is not part of the module basis."""


class Sq1NotZero(ValueError):
    """Raised when an operation requires Sq^1 = 0 and the module has Sq^1 != 0."""


class UnstableModule(namedtuple("UnstableModule", "basis sq cup top_degree")):
    """Graded basis, sparse Sq table, optional cup table, top nonzero degree.

    basis entries are (name, degree) in declaration order, and class i is
    bit i of a mask. sq maps class index i -> {k: mask of Sq^k x_i}, nonzero
    masks of classes with a stored square only; Sq^0 is implicit, and k may
    exceed deg x_i. cup maps an index pair (i, j) with i <= j to the mask of
    their product, or is None when the product structure is unknown. Both
    tables are stored once and read in place.
    """

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: i for i, (name, _) in enumerate(self.basis)}

    @cached_property
    def _degrees(self) -> dict[int, list[int]]:
        """degree -> ascending class indices, in order of first appearance."""
        out: dict[int, list[int]] = {}
        for i, (_, deg) in enumerate(self.basis):
            out.setdefault(deg, []).append(i)
        return out

    @cached_property
    def _unit_bit(self) -> int:
        """The bit of the first degree-0 class, or 0 when there is none."""
        return 1 << self._degrees[0][0] if 0 in self._degrees else 0

    @cached_property
    def _degree_masks(self) -> dict[int, tuple[int, int]]:
        """degree -> (low, span): bit i of span is class low + i."""
        masks = {}
        for deg, idx in self._degrees.items():  # a bitmap over each span
            low = idx[0]
            row = bytearray(((idx[-1] - low) >> 3) + 1)
            for i in idx:
                row[(i - low) >> 3] |= 1 << ((i - low) & 7)
            masks[deg] = low, int.from_bytes(row, "little")
        return masks

    def names(self, mask: int) -> tuple:
        """The basis classes of a mask, in declaration order."""
        _check_mask(mask, len(self.basis))
        return tuple(self.basis[i][0] for i in _bits(mask))

    def unit(self) -> str | None:
        return next(iter(self.names(self._unit_bit)), None)

    def basis_vector(self, name: str) -> tuple[int, int]:
        """The (degree, mask) pair of the named class."""
        try:
            i = self._index[name]
        except KeyError:
            raise UnknownClass(name) from None
        return self.basis[i][1], 1 << i

    def cup_product(self, v: int, w: int) -> int:
        """Bilinear extension of the stored table to masks; the unit acts as
        the identity, and a stored product above the top degree is zero.

        >>> m = UnstableModule((("1", 0), ("h", 2), ("h2", 4)), {},
        ...                    {(1, 1): 0b100}, 4)
        >>> m.names(m.cup_product(0b010, 0b011))
        ('h', 'h2')
        """
        if self.cup is None:
            raise ValueError("module has no cup table")
        for mask in (v, w):
            _check_mask(mask, len(self.basis))
        u, acc = self._unit_bit, 0
        if (v | w) & u:  # the unit acts as the identity
            acc = (w if v & u else 0) ^ (v & ~u if w & u else 0)
            v, w = v & ~u, w & ~u
        for i in _bits(v):
            for j in _bits(w):
                acc ^= self._product(i, j)
        return acc

    def _product(self, i: int, j: int) -> int:
        """The stored product of classes i and j, or 0 above the top degree."""
        mask = self.cup.get((i, j) if i <= j else (j, i))
        if mask and self.basis[i][1] + self.basis[j][1] <= self.top_degree:
            return mask
        return 0


def _check_mask(mask: int, width: int, what: str = "a basis class") -> None:
    """The one edge check on a mask from a caller: UnknownClass unless it
    is a set of bits below width, each bit standing for `what`."""
    if mask < 0:
        raise UnknownClass(f"mask {mask} is negative, not a set of classes")
    if mask >> width:
        raise UnknownClass(f"bit {mask.bit_length() - 1} is not {what}")


def _check_vector(m: UnstableModule, v: tuple[int, int]) -> None:
    """The edge check on a (degree, mask) pair from a caller: _check_mask,
    and UnknownClass naming the first class of the mask that is not of
    the pair's degree."""
    degree, mask = v
    _check_mask(mask, len(m.basis))
    low, span = m._degree_masks.get(degree, (0, 0))
    stray = mask ^ ((mask >> low) & span) << low
    if stray:
        name, deg = m.basis[(stray & -stray).bit_length() - 1]
        raise UnknownClass(f"class {name!r} has degree {deg}, not {degree}")


def _bits(mask: int):
    """The class indices of the set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def sq(m: UnstableModule, k: int, v: tuple[int, int]) -> tuple[int, int]:
    """Apply Sq^k to a homogeneous (degree, mask) vector. Sq^0 is the
    identity and Sq^k v = 0 for k > deg(v) or k < 0. A mask that is not a
    set of basis classes of the pair's degree raises UnknownClass.

    >>> m = UnstableModule((("1", 0), ("h", 2), ("h2", 4)),
    ...                    {1: {2: 0b100}}, None, 4)
    >>> sq(m, 2, m.basis_vector("h"))
    (4, 4)
    >>> sq(m, 3, m.basis_vector("h"))
    (5, 0)
    """
    _check_vector(m, v)
    degree, mask = v
    if k == 0:
        return v
    return degree + k, _squares_of(m.sq, mask, degree).get(k, 0)


def is_sq1_zero(m: UnstableModule) -> bool:
    """Whether Sq^1 vanishes identically (true for the empty module)."""
    return not any(1 in row for row in m.sq.values())


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
    return [(a + b - c, c) for c in range(a // 2 + 1) if _adem_odd(a, b, c)]


def _adem_odd(a: int, b: int, c: int) -> bool:
    """Whether Sq^(a+b-c) Sq^c has the odd coefficient C(b-c-1, a-2c) in Sq^a Sq^b."""
    return 2 * c <= a and (a - 2 * c) & ~(b - c - 1) == 0


def _shown(m: UnstableModule, mask: int) -> str:
    """A vector for a report message: {'a', 'b'} in basis order, or 0."""
    if not mask:
        return "0"
    return "{" + ", ".join(repr(name) for name in m.names(mask)) + "}"


def _squares_of(squares: dict, mask: int, degree: int) -> dict[int, int]:
    """{k: Sq^k v} for 1 <= k <= degree, v the vector of that degree with
    this mask; a zero value may be absent or stored as 0.

    The one reader that turns stored rows into squares of a vector, for
    sq(), the E_X ladders and the Cartan and Adem checks. A class's row
    is read for any k up to deg v, even where it breaks instability.
    """
    out: dict[int, int] = {}
    for i in _bits(mask):
        for k, row in squares.get(i, {}).items():
            if 1 <= k <= degree:
                out[k] = out.get(k, 0) ^ row
    return out


def validate(m: UnstableModule) -> Report:
    """Check every axiom the presentation can express; see the module docstring.

    Pure and idempotent. The report carries one entry per violation, plus a
    note for each check that had to be skipped. No failures means valid.
    """
    rep, leads = Report(), {}  # leads: leading bit -> pivot of the products
    rows: dict[int, dict] = {}  # class i -> {k: Sq^k x_i}, 1 <= k <= deg x_i
    reach: dict[int, list] = {}  # class z -> [(z, 0)] + [(x, j): z in Sq^j x in rows]
    for k, i, mask in sorted((k, i, mask) for i, row in m.sq.items()
                             for k, mask in row.items()):
        u, du = m.basis[i]
        stable = k <= du
        if stable:
            rows.setdefault(i, {})[k] = mask
        for j in _bits(mask):
            t, dt = m.basis[j]
            if stable:
                reach.setdefault(j, [(j, 0)]).append((i, k))
            if dt != du + k:
                rep.add("degree-shift", FAIL,
                        f"Sq^{k} {u} contains {t} of degree {dt}, "
                        f"expected degree {du + k}")
        if not stable:
            rep.add("instability", FAIL,
                    f"Sq^{k} {u} is nonzero but k = {k} exceeds deg({u}) = {du}")

    if m.cup is None:
        rep.add("square-rule", NOTE, "no cup table stored; check skipped")
        rep.add("cartan", NOTE, "no cup table stored; check skipped")
    else:
        # both sides vanish unless u cup u or Sq^(deg u) u is stored
        for i in sorted({i for i, row in rows.items() if m.basis[i][1] in row}
                        | {i for i, j in m.cup if i == j}):
            name, deg = m.basis[i]
            if deg < 1:
                continue
            left = m.sq.get(i, {}).get(deg, 0)
            right = m._product(i, i)  # deg >= 1, so i is not the unit
            if left != right:
                rep.add("square-rule", FAIL,
                        f"Sq^{deg} {name} = {_shown(m, left)} but "
                        f"{name} cup {name} = {_shown(m, right)}")
        for ix, iy in sorted(m.cup):
            (x, dx), (y, dy) = m.basis[ix], m.basis[iy]
            for j in _bits(m.cup[ix, iy]):
                t, dt = m.basis[j]
                if dt != dx + dy:
                    rep.add("degree-shift", FAIL,
                            f"{x} cup {y} contains {t} of degree {dt}, "
                            f"expected degree {dx + dy}")
        # Cartan: Sq^i(xy) sums the terms Sq^j x cup Sq^k y, j + k = i, and
        # a term sums the stored z cup w with z in Sq^j x and w in Sq^k y. So
        # each stored product is added to every pair x <= y it reaches, z from
        # x and w from y or the other way round (for x = y and z != w the two
        # cancel). A stored pair x, y gets at most 2(1 + |Sq x|)(1 + |Sq y|)
        # terms, |Sq x| the classes in x's squares; the rest, on absent pairs,
        # must cancel. So the terms are counted first, against that bound
        products = [(p, reach.get(z) or [(z, 0)], reach.get(w) or [(w, 0)], z, w)
                    for z, w in m.cup if (p := m._product(z, w))]
        terms = sum(len(zs) * len(ws) for _, zs, ws, _, _ in products)
        leads = pivots(p for p, _, _, z, w in products if m.basis[z][1] and m.basis[w][1])
        width = {i: 1 + sum(v.bit_count() for v in row.values()) for i, row in rows.items()}
        own = sum(width.get(x, 1) * width.get(y, 1) for x, y in m.cup)
        if terms > CARTAN_BUDGET * own:
            rep.add("cartan", FAIL, f"the Cartan sums have {terms} terms, over "
                    f"{CARTAN_BUDGET} times the {own} of the stored pairs; check not run")
        else:
            sums: dict[tuple[int, int], dict[int, int]] = {}
            for p, zs, ws, z, w in products:
                for x, j in zs:
                    for y, k in ws:
                        if j + k and (x <= y if z == w else x != y):
                            row = sums.setdefault((x, y) if x < y else (y, x), {})
                            row[j + k] = row.get(j + k, 0) ^ p
            unit = m._unit_bit.bit_length() - 1  # its pairs are not checked
            for ix, iy in sorted(p for p in sums.keys() | m.cup.keys() if unit not in p):
                (x, dx), (y, dy) = m.basis[ix], m.basis[iy]
                left = _squares_of(m.sq, m.cup.get((ix, iy), 0), dx + dy)
                right = sums.get((ix, iy), {})
                for i in sorted(left.keys() | right.keys()):
                    if (a := left.get(i, 0)) != (b := right.get(i, 0)):
                        rep.add("cartan", FAIL, f"Sq^{i}({x} cup {y}): table gives "
                                f"{_shown(m, a)}, Cartan sum gives {_shown(m, b)}")

    # Adem relations Sq^a Sq^b u, 1 <= a < 2b and s = a + b <= top, on the
    # generators u with a row (without one, Sq^x Sq^y u = 0): those that lead
    # no pivot of the products of positive-degree classes. The Adem ideal is
    # a Hopf ideal, so under Cartan R(yz) is R(y) z + y R(z) plus terms that
    # apply relations of total < s; by induction on s and the degree, Adem on
    # the generators gives it on every class. Both sides vanish for b > deg u,
    # as Sq^b u = 0 and Sq^x Sq^y u with x + y = s, y < b has x > deg u + y.
    # Each side sums nonzero values Sq^(s-c) Sq^c u of total s, so only their
    # totals can fail, each with max(1, s - deg u) <= a <= (2s - 1) // 3; the
    # right side sums those with _adem_odd(a, b, c), with no memo.
    adem = []
    for i in rows.keys() - {bit - 1 for bit in leads}:
        row, (name, deg) = rows[i], m.basis[i]
        totals: dict[int, dict[int, int]] = {}  # s <= top -> {y: Sq^(s-y) Sq^y u}
        for y, v in [(0, 1 << i), *row.items()]:  # Sq^y u, u itself for y = 0
            squares = row if y == 0 else _squares_of(m.sq, v, deg + y)
            for x, r in squares.items():
                if r and x + y <= m.top_degree:
                    totals.setdefault(x + y, {})[y] = r
        for total, values in totals.items():
            for a in range(max(1, total - deg), (2 * total - 1) // 3 + 1):
                b = total - a
                right = 0
                for c, v in values.items():
                    right ^= v if _adem_odd(a, b, c) else 0
                if (left := values.get(b, 0)) != right:
                    adem.append((b, a, i, f"Sq^{a} Sq^{b} {name} = {_shown(m, left)} "
                                          f"but the Adem expansion gives {_shown(m, right)}"))
    for *_, message in sorted(adem):
        rep.add("adem", FAIL, message)
    return rep


validate_module = validate  # the package exports validate by this name
