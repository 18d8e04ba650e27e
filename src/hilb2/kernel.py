"""The kernel of the pushforward from E to the Hilbert square of X.

For every basis class u of H*(X;F2) the following elements of H*(E;F2) push
forward to zero, and together they span the kernel (a = deg(u) // 2):

  family 1   deg(u) = 2a    e^j (e^a u + e^(a-1) Sq^2 u + ... + Sq^(2a) u)    0 <= j <= n-1-a
  family 2   deg(u) = 2a+1  e^j (e^a u + e^(a-1) Sq^2 u + ... + Sq^(2a) u)    0 <= j <= n-1-a
  family 3   deg(u) = 2a    e^j (e^(a-1) Sq^1 u + ... + Sq^(2a-1) u)          0 <= j <= n-1-a
  family 4   deg(u) = 2a+1  e^j (e^a Sq^1 u + ... + Sq^(2a+1) u)              0 <= j <= n-2-a

Families 1 and 2 are the even-square ladders (boundary_with_b for even u,
boundary_no_b for odd u); when Sq^1 = 0 they alone form a basis of the
kernel, being triangular with distinct leading terms e^(j+a) u. Families 3
and 4 are the odd-square ladders and vanish identically when Sq^1 = 0.
Generators whose ladder collapses to zero are kept, flagged, so the span
computation and the reports can account for them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import exdiv, gf2, steenrod
from .exdiv import ExClass
from .report import FAIL, PASS, Report
from .spaces import ManifoldDescriptor, once
from .steenrod import Sq1NotZero

MODES = ("all", "families12")


@dataclass(frozen=True)
class KernelGenerator:
    family: int  # 1..4
    source: str  # basis class u
    j: int  # e-power multiplying the ladder
    value: ExClass

    @property
    def is_zero(self) -> bool:
        return self.value.is_zero()


def _column_key(d: ManifoldDescriptor):
    index = d.module.index
    return lambda key: (key[0], index(key[1]))


def kernel_generators(d: ManifoldDescriptor,
                      mode: str = "all") -> list[KernelGenerator]:
    """All generators in declaration order of u, families inner, j innermost.

    mode "families12" keeps only the even-square ladders (the basis in the
    Sq^1 = 0 case); mode "all" emits all four families. The list is built
    once per descriptor; each call returns a fresh copy.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    gens = once(d, "kernel_generators", lambda: _build_generators(d))
    return list(gens) if mode == "all" else [g for g in gens if g.family <= 2]


def _build_generators(d: ManifoldDescriptor) -> list[KernelGenerator]:
    out: list[KernelGenerator] = []
    for name, deg in d.module.basis:
        u = d.module.basis_vector(name)
        a = deg // 2
        if deg % 2 == 0:
            ladders = [(1, exdiv.boundary_with_b(d, u), d.n - 1 - a),
                       (3, exdiv.boundary_no_b(d, u), d.n - 1 - a)]
        else:
            ladders = [(2, exdiv.boundary_no_b(d, u), d.n - 1 - a),
                       (4, exdiv.boundary_with_b(d, u), d.n - 2 - a)]
        for family, base, j_max in ladders:
            value = base
            for j in range(j_max + 1):
                if j > 0:
                    value = exdiv.e_multiply(value)
                out.append(KernelGenerator(family, name, j, value))
    return out


def kernel_dimensions(d: ManifoldDescriptor, mode: str = "all") -> dict[int, int]:
    """Dimension of the kernel span per degree; zero degrees omitted.

    >>> from hilb2.catalog import catalog_get
    >>> kernel_dimensions(catalog_get("p2"))
    {0: 1, 2: 1, 4: 1}
    >>> kernel_dimensions(catalog_get("enriques_x"))
    {0: 1, 1: 1, 2: 2, 3: 2, 4: 12, 5: 1}
    """
    gens = kernel_generators(d, mode)
    dims = once(d, ("kernel_dimensions", mode), lambda: gf2.span_dims_by_degree(
        [g.value for g in gens if not g.is_zero], column_key=_column_key(d)))
    return dict(dims)


def redundant_degrees(d: ManifoldDescriptor) -> dict[int, tuple[int, int]]:
    """Degrees where the four families overlap: degree -> (count, dimension)."""
    counts: dict[int, int] = {}
    for g in kernel_generators(d, "all"):
        if not g.is_zero:
            counts[g.value.degree] = counts.get(g.value.degree, 0) + 1
    dims = kernel_dimensions(d, "all")
    return {deg: (counts[deg], dims[deg]) for deg in sorted(counts)
            if counts[deg] != dims[deg]}


def corollary_check(d: ManifoldDescriptor, samples: int = 200,
                    seed: int = 0) -> Report:
    """Sampled divisibility constraint on the kernel, valid when Sq^1 = 0.

    Any kernel element w of even total degree 2k decomposes as
    w = sum_j e^j c_j. For every l with 2l > k: if all coefficients above
    e-power k-l vanish, the coefficient at e-power k-l must vanish too.
    Random F2-combinations of same-degree generators are tested; the report
    carries one summary entry, or one failure per counterexample found.
    """
    if not steenrod.is_sq1_zero(d.module):
        raise Sq1NotZero(
            f"{d.name}: the divisibility corollary assumes Sq^1 = 0")
    gens = [g for g in kernel_generators(d, "all")
            if not g.is_zero and g.value.degree % 2 == 0]
    by_degree: dict[int, list[KernelGenerator]] = {}
    for g in gens:
        by_degree.setdefault(g.value.degree, []).append(g)
    rep = Report()
    if not by_degree:
        rep.add("corollary", PASS, "no even-degree kernel generators; vacuous")
        return rep
    rng = random.Random(seed)
    degrees = sorted(by_degree)
    tested = 0
    for _ in range(samples):
        degree = degrees[rng.randrange(len(degrees))]
        pool = by_degree[degree]
        picked = [g for g in pool if rng.getrandbits(1)]
        if not picked:
            continue
        w = picked[0].value
        for g in picked[1:]:
            w = w + g.value
        tested += 1
        if w.is_zero():
            continue
        k = degree // 2
        lead = w.leading_power()
        for l in range(k // 2 + 1, k + 1):
            p = k - l
            if p < 0 or p >= d.n:
                continue
            if lead <= p and not w.coefficient(p).is_zero():
                rep.add("corollary", FAIL, {
                    "degree": degree,
                    "l": l,
                    "e_power": p,
                    "coefficient": sorted(w.coefficient(p).entries),
                    "combination": [(g.family, g.source, g.j) for g in picked],
                })
    if rep.ok:
        rep.add("corollary", PASS,
                f"{tested} sampled combinations satisfied the constraint")
    return rep
