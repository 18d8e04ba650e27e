"""The kernel of the pushforward from E to the Hilbert square of X.

For every basis class u of H*(X;F2), r = deg(u), and every square parity
s in {0, 1}, let t = (r - s) // 2 and let

  L_s(u) = e^t Sq^s u + e^(t-1) Sq^(s+2) u + ... + Sq^(s+2t) u

in degree r + s + 2t (exdiv._ladder). The elements e^j L_s(u) for
0 <= j <= n - 1 - s - t push forward to zero, and together they span the
kernel; each is tagged family 1 + (r mod 2) + 2s.

Families 1 and 2 are the even-square ladders (s = 0); when Sq^1 = 0 they
alone form a basis of the kernel, being triangular with distinct leading
terms e^(j+t) u. Families 3 and 4 are the odd-square ladders (s = 1) and
vanish identically when Sq^1 = 0; they are computed only when the module
stores some odd square.

exdiv.shifted_ladders yields each nonzero ladder once, at j = 0, with its
number of shifts; _build_generators alone expands them, by exdiv's shift
rule, working out the family and class name once per ladder, and each
generator is one KernelGenerator tuple. A class with no stored square
skips the ladder computation: its one nonzero ladder is e^t u. A zero
ladder contributes no generator, so every listed generator is nonzero.

_build_pools groups the generators by degree in one pass, brings each
degree's masks to echelon form with gf2.pivots once per descriptor, and
keeps their count, rank and lowest pivot. That one table gives
kernel_dimensions its ranks, redundant_degrees its counts and
corollary_check its lowest pivots.

corollary_check is exact and draws nothing at random: an even degree fails
iff its lowest pivot breaks the constraint, one FAIL each, its combination
found by an augmented elimination of that degree's generators, and a PASS
states how many even degrees were decided. A loaded Sq^1 = 0 descriptor has
only families 1-2 and never fails.
"""

from collections import namedtuple

from . import exdiv, gf2, steenrod
from .report import FAIL, PASS, Report
from .spaces import ManifoldDescriptor, once
from .steenrod import Sq1NotZero


class KernelGenerator(namedtuple("KernelGenerator",
                                 "family source j degree mask")):
    """family 1..4; source, the basis class u; j, the e-power multiplying
    the ladder; degree and mask, the class on E in exdiv's bit layout."""

    __slots__ = ()

    @property
    def is_zero(self) -> bool:
        return not self.mask


# the generators of one degree, counted and brought to echelon form; low is
# the pivot with the lowest leading bit
_Pool = namedtuple("_Pool", "count rank low")


def kernel_generators(d: ManifoldDescriptor) -> list[KernelGenerator]:
    """The nonzero generators of all four families in declaration order of
    u, s inner, j innermost; a zero ladder is not listed. The list is built
    once per descriptor and shared by every call, so treat it as read-only.
    Printing a generator with exdiv.format_exclass needs a descriptor with
    no degree-shift FAIL, such as a loaded one; on a parse-only descriptor
    whose stored squares break grading it can raise UnknownClass.
    """
    return once(d, "kernel_generators", lambda: _build_generators(d))


def _build_generators(d: ManifoldDescriptor) -> list[KernelGenerator]:
    basis, width = d.module.basis, len(d.module.basis)
    out: list[KernelGenerator] = []
    add = out.append
    new = tuple.__new__  # KernelGenerator(...) without its Python-level __new__
    for i, s, degree, mask, count in exdiv.shifted_ladders(d):
        name, deg = basis[i]
        family = 1 + deg % 2 + 2 * s
        for j in range(count):  # e^j L_s(u), by exdiv's shift rule
            add(new(KernelGenerator,
                    (family, name, j, degree + 2 * j, mask << j * width)))
    return out


def _pools(d: ManifoldDescriptor) -> dict[int, _Pool]:
    """degree -> _Pool, degrees ascending, built once per descriptor."""
    gens = kernel_generators(d)
    return once(d, "kernel_pools", lambda: _build_pools(gens))


def _build_pools(gens: list[KernelGenerator]) -> dict[int, _Pool]:
    # every listed generator is nonzero, so each one is a row of its degree
    by_degree: dict[int, list[int]] = {}
    for g in gens:
        by_degree.setdefault(g.degree, []).append(g.mask)
    echelon = {degree: gf2.pivots(by_degree[degree]) for degree in sorted(by_degree)}
    return {degree: _Pool(len(by_degree[degree]), len(leads), leads[min(leads)])
            for degree, leads in echelon.items()}


def kernel_dimensions(d: ManifoldDescriptor) -> dict[int, int]:
    """Dimension of the kernel span per degree; zero degrees omitted.

    >>> from hilb2.catalog import catalog_get
    >>> kernel_dimensions(catalog_get("p2"))
    {0: 1, 2: 1, 4: 1}
    >>> kernel_dimensions(catalog_get("enriques_x"))
    {0: 1, 1: 1, 2: 2, 3: 2, 4: 12, 5: 1}
    """
    return {deg: p.rank for deg, p in _pools(d).items()}


def redundant_degrees(d: ManifoldDescriptor) -> dict[int, tuple[int, int]]:
    """Degrees where the four families overlap: degree -> (count, dimension)."""
    pools = _pools(d)
    dims = kernel_dimensions(d)
    return {deg: (p.count, dims[deg]) for deg, p in pools.items()
            if p.count != dims[deg]}


def corollary_check(d: ManifoldDescriptor) -> Report:
    """Divisibility constraint on the kernel, valid when Sq^1 = 0.

    Any kernel element w of even total degree 2k decomposes as
    w = sum_j e^j c_j. For every l with 2l > k: if all coefficients above
    e-power k-l vanish, the coefficient at e-power k-l must vanish too.
    Only l = k - p, for p the leading e-power of w, can break this, and p
    grows with the leading bit, which over a degree's span is lowest at
    the lowest pivot. So the verdict is exact: one FAIL, degrees ascending,
    per even degree whose lowest pivot leads at a p with 2(k - p) > k, with
    the combination from _witness. No loaded descriptor fails: with
    Sq^1 = 0 only families 1-2 remain, and e^j L_0(u) leads at
    p = j + deg u / 2, with 2(k - p) = deg u <= k.
    """
    if not steenrod.is_sq1_zero(d.module):
        raise Sq1NotZero(
            f"{d.name}: the divisibility corollary assumes Sq^1 = 0")
    rep = Report()
    even = [(degree, p) for degree, p in _pools(d).items() if degree % 2 == 0]
    for degree, p in even:
        k = degree // 2
        if 2 * (k - exdiv.leading_power(d, p.low)) > k:
            rep.add("corollary", FAIL, _witness(d, degree))
    if not even:
        rep.add("corollary", PASS, "no even-degree kernel generators; vacuous")
    elif rep.ok:
        rep.add("corollary", PASS, "every even degree's lowest pivot "
                f"satisfies the constraint; even degrees: {len(even)}")
    return rep


def _witness(d: ManifoldDescriptor, degree: int) -> dict:
    """The FAIL details of a failing degree. Its L generators, as the rows
    g.mask << L | 1 << i, go to echelon form; the pivot of lowest lead
    above L holds an element of lowest leading bit in the span (high part)
    and the generators that sum to it (low bits)."""
    pool = [g for g in kernel_generators(d) if g.degree == degree]
    size = len(pool)
    echelon = gf2.pivots(g.mask << size | 1 << i for i, g in enumerate(pool))
    row = echelon[min(lead for lead in echelon if lead > size)]
    w = row >> size
    k = degree // 2
    p = exdiv.leading_power(d, w)
    _, coeff = exdiv._coefficient(d, (degree, w), p)
    return {"degree": degree, "l": k - p, "e_power": p,
            "coefficient": sorted(d.module.names(coeff)),
            "combination": [(g.family, g.source, g.j)
                            for i, g in enumerate(pool) if row >> i & 1]}
