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

exdiv.shifted_ladders lists the generators, one list of e^j shifts per
ladder, so the family and the class name are worked out once per ladder.
A class with no stored square skips the ladder computation: its one
nonzero ladder is e^t u. A ladder that collapses to zero contributes no
generator, so every listed generator is nonzero.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import NamedTuple

from . import exdiv, gf2, steenrod
from .gf2 import F2Vector
from .report import FAIL, PASS, Report
from .spaces import ManifoldDescriptor, once
from .steenrod import Sq1NotZero


class KernelGenerator(NamedTuple):
    family: int  # 1..4
    source: str  # basis class u
    j: int  # e-power multiplying the ladder
    value: F2Vector  # a class on E, in exdiv's bit layout

    @property
    def is_zero(self) -> bool:
        return self.value.is_zero()


def kernel_generators(d: ManifoldDescriptor) -> list[KernelGenerator]:
    """The nonzero generators of all four families in declaration order of
    u, s inner, j innermost; a zero ladder is not listed. The list is built
    once per descriptor; each call returns a fresh copy.
    """
    return list(once(d, "kernel_generators", lambda: _build_generators(d)))


def _build_generators(d: ManifoldDescriptor) -> list[KernelGenerator]:
    basis = d.module.basis
    out: list[KernelGenerator] = []
    for i, s, shifts in exdiv.shifted_ladders(d):
        name, deg = basis[i]
        family = 1 + deg % 2 + 2 * s
        out += [KernelGenerator(family, name, j, value)
                for j, value in enumerate(shifts)]
    return out


def kernel_dimensions(d: ManifoldDescriptor) -> dict[int, int]:
    """Dimension of the kernel span per degree; zero degrees omitted.

    >>> from hilb2.catalog import catalog_get
    >>> kernel_dimensions(catalog_get("p2"))
    {0: 1, 2: 1, 4: 1}
    >>> kernel_dimensions(catalog_get("enriques_x"))
    {0: 1, 1: 1, 2: 2, 3: 2, 4: 12, 5: 1}
    """
    gens = kernel_generators(d)
    dims = once(d, "kernel_dimensions", lambda: gf2.span_dims_by_degree(
        (g.value.degree, g.value.mask) for g in gens))
    return dict(dims)


def redundant_degrees(d: ManifoldDescriptor) -> dict[int, tuple[int, int]]:
    """Degrees where the four families overlap: degree -> (count, dimension)."""
    counts = Counter(g.value.degree for g in kernel_generators(d))
    dims = kernel_dimensions(d)
    return {deg: (counts[deg], dims[deg]) for deg in sorted(counts)
            if counts[deg] != dims[deg]}


def corollary_check(d: ManifoldDescriptor, samples: int = 200,
                    seed: int = 0) -> Report:
    """Sampled divisibility constraint on the kernel, valid when Sq^1 = 0.

    Any kernel element w of even total degree 2k decomposes as
    w = sum_j e^j c_j. For every l with 2l > k: if all coefficients above
    e-power k-l vanish, the coefficient at e-power k-l must vanish too.
    Only l = k - p, for p the leading e-power of w, can break this.
    Random F2-combinations of same-degree generators are tested; the report
    carries one summary entry, or one failure per counterexample found.

    A sample draws one of the D even degrees with
    random.Random(seed).randrange(D), done inline the way randrange does
    it: getrandbits(D.bit_length()), drawn again while it is D or more.
    It then draws one getrandbits(32 * L) for that degree's pool of L
    generators: generator i is picked when bit 32i + 31 is set, which is
    the bit getrandbits(1) would return for word i, so the picks and the
    state of the generator are those of L one-bit draws. Both bit counts
    and the pick mask of each degree are worked out before the loop. The
    leading bits of the nonzero elements of a pool's span are those of its
    echelon form (gf2.pivots), so a degree can fail exactly when some pivot
    leads at an e-power p with 2(k - p) > k. The e-power grows with the
    bit, so the lowest pivot decides. Samples of the other degrees are only
    counted; in a degree that can fail, each sample XORs its picks.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if not steenrod.is_sq1_zero(d.module):
        raise Sq1NotZero(
            f"{d.name}: the divisibility corollary assumes Sq^1 = 0")
    by_degree: dict[int, list[KernelGenerator]] = {}
    for g in kernel_generators(d):
        if g.value.degree % 2 == 0:
            by_degree.setdefault(g.value.degree, []).append(g)
    rep = Report()
    if not by_degree:
        rep.add("corollary", PASS, "no even-degree kernel generators; vacuous")
        return rep
    degrees = sorted(by_degree)
    # per degree, in draw order: (bits of its pick word, mask of the pick bits)
    steps = [(32 * len(by_degree[deg]),
              int.from_bytes(b"\0\0\0\x80" * len(by_degree[deg]), "little"))
             for deg in degrees]
    fallible = set()  # draw indices of the degrees where a sample can fail
    for r, degree in enumerate(degrees):
        k = degree // 2
        leads = gf2.pivots(g.value.mask for g in by_degree[degree])
        if 2 * (k - exdiv.leading_power(d, leads[min(leads)])) > k:
            fallible.add(r)
    getrandbits = random.Random(seed).getrandbits
    count = len(steps)
    draw_bits = count.bit_length()
    tested = 0
    for _ in range(samples):
        r = getrandbits(draw_bits)  # randrange(count)
        while r >= count:
            r = getrandbits(draw_bits)
        bits, tops = steps[r]
        word = getrandbits(bits)
        if not word & tops:
            continue
        tested += 1
        if r not in fallible:
            continue
        degree = degrees[r]
        picked = [g for i, g in enumerate(by_degree[degree])
                  if word >> 32 * i + 31 & 1]
        w = 0
        for g in picked:
            w ^= g.value.mask
        if not w:
            continue
        k = degree // 2
        p = exdiv.leading_power(d, w)
        if 2 * (k - p) > k:
            coeff = exdiv.coefficient(d, F2Vector(degree, w), p)
            rep.add("corollary", FAIL, {
                "degree": degree,
                "l": k - p,
                "e_power": p,
                "coefficient": sorted(d.module.names(coeff.mask)),
                "combination": [(g.family, g.source, g.j) for g in picked],
            })
    if rep.ok:
        rep.add("corollary", PASS,
                f"{tested} sampled combinations satisfied the constraint")
    return rep
