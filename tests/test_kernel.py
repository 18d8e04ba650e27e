"""Kernel of the pushforward from the exceptional divisor."""

import json
import random

import pytest

from conftest import e_multiply, make_descriptor, parse_only
from hilb2 import (
    KernelGenerator,
    catalog_get,
    catalog_names,
    corollary_check,
    descriptor_to_json,
    descriptor_violations,
    format_exclass,
    kernel,
    kernel_dimensions,
    kernel_generators,
    load_descriptor,
    redundant_degrees,
    run_suite,
)
from hilb2.gf2 import span_dims_by_degree
from hilb2.steenrod import Sq1NotZero, UnknownClass

FROZEN_DIMS = {
    "p1": {0: 1},
    "p2": {0: 1, 2: 1, 4: 1},
    "p3": {0: 1, 2: 1, 4: 2, 6: 1, 8: 1},
    "k3": {0: 1, 2: 1, 4: 22},
    "enriques_x": {0: 1, 1: 1, 2: 2, 3: 2, 4: 12, 5: 1},
    "elliptic_y": {0: 1, 1: 1, 2: 1, 3: 1, 4: 12, 5: 1},
}


def test_kernel_dimensions_frozen_values():
    for name, want in FROZEN_DIMS.items():
        assert kernel_dimensions(catalog_get(name)) == want, name


def families12(d):
    """The even-square generators, the basis in the Sq^1 = 0 case."""
    return [g for g in kernel_generators(d) if g.family <= 2]


def rank_by_degree(gens):
    return span_dims_by_degree((g.degree, g.mask) for g in gens)


def test_generator_listing_p2():
    gens = [(g.family, g.source, g.j)
            for g in families12(catalog_get("p2")) if not g.is_zero]
    assert gens == [(1, "1", 0), (1, "1", 1), (1, "h", 0)]


def test_even_square_families_span_matches_count():
    # the even-square ladders are triangular in the leading e-power, so for
    # families 1-2 the generator count per degree equals the span dimension
    for name in catalog_names():
        d = catalog_get(name)
        gens = [g for g in families12(d) if not g.is_zero]
        counts = {}
        for g in gens:
            counts[g.degree] = counts.get(g.degree, 0) + 1
        assert counts == rank_by_degree(gens), name


def test_families12_give_everything_when_sq1_is_zero():
    # the odd-square ladders vanish with Sq^1, and zero ladders are not
    # listed, so only families 1-2 appear
    for name in ("p1", "p2", "p3", "k3", "elliptic_y"):
        d = catalog_get(name)
        assert rank_by_degree(families12(d)) == kernel_dimensions(d)
        gens = kernel_generators(d)
        assert gens == families12(d)
        assert {g.family for g in gens} <= {1, 2}, name
    families = {g.family for g in kernel_generators(catalog_get("enriques_x"))}
    assert families == {1, 2, 3, 4}


def test_family_parities():
    for name in catalog_names():
        for g in kernel_generators(catalog_get(name)):
            if g.is_zero:
                continue
            want_even = g.family in (1, 4)
            assert g.degree % 2 == (0 if want_even else 1), \
                (name, g.family)


def test_generators_stable_under_e_multiplication():
    # within one family and source, the j+1 generator is e times the j one
    for name in ("p3", "enriques_x"):
        d = catalog_get(name)
        gens = {}
        for g in kernel_generators(d):
            gens[(g.family, g.source, g.j)] = (g.degree, g.mask)
        for (family, source, j), value in gens.items():
            nxt = gens.get((family, source, j + 1))
            if nxt is None or not value[1]:
                continue
            assert e_multiply(d, value) == nxt, (name, family, source, j)


def test_bockstein_adds_kernel_classes():
    # enriques and elliptic share Betti numbers; the Bockstein on the
    # enriques side enlarges the kernel in degrees 2 and 3
    ex = kernel_dimensions(catalog_get("enriques_x"))
    ey = kernel_dimensions(catalog_get("elliptic_y"))
    assert ex[2] == ey[2] + 1
    assert ex[3] == ey[3] + 1
    assert {k: ex[k] for k in (0, 1, 4, 5)} == {k: ey[k] for k in (0, 1, 4, 5)}


def test_redundant_degrees_on_catalog_and_crafted_overlap():
    for name in catalog_names():
        assert redundant_degrees(catalog_get(name)) == {}, name
    # two classes with the same Bockstein image duplicate one generator
    d = make_descriptor(n=2, degrees=[0, 2, 2, 3], compact=False,
                        sq=[{"k": 1, "from": "c1", "to": ["c3"]},
                            {"k": 1, "from": "c2", "to": ["c3"]}])
    assert redundant_degrees(d) == {3: (2, 1)}


def test_kernel_generators_shares_one_list_per_descriptor():
    # the list is memoized and read-only; no call copies it
    d = catalog_get("k3")
    assert kernel_generators(d) is kernel_generators(d)
    run_suite(d)
    assert kernel_generators(d) is kernel_generators(d)


def test_generators_of_a_descriptor_with_a_degree_shift_fail_may_not_print():
    # Sq^3 of a degree-3 class stored in degree 0: parse_descriptor keeps it,
    # and the family-4 ladders of c1 carry c0 into degrees 6 and 8
    d = parse_only(n=4, degrees=[0, 3, 8],
                   sq=[{"k": 3, "from": "c1", "to": ["c0"]}])
    assert "degree-shift" in {e.check for e in descriptor_violations(d).failures}
    bad = [g for g in kernel_generators(d) if g.family == 4]
    assert [(g.degree, g.mask) for g in bad] == [(6, 0b1), (8, 0b1000)]
    for g in bad:
        with pytest.raises(UnknownClass, match="'c0' has degree 0, not 6"):
            format_exclass(d, (g.degree, g.mask))


def test_sq2_perturbation_leaves_kernel_dimensions_alone():
    base = catalog_get("enriques_x")
    want = kernel_dimensions(base)
    obj = json.loads(descriptor_to_json(base))
    degree2 = [c["name"] for c in obj["classes"] if c["degree"] == 2]
    # send half of the degree-2 classes to the top class under Sq^2
    obj["sq"] = obj["sq"] + [{"k": 2, "from": u, "to": ["top"]}
                             for u in degree2[::2]]
    perturbed = load_descriptor(json.dumps(obj))
    assert kernel_dimensions(perturbed) == want


def test_corollary_check_passes_on_even_catalog_entries():
    for name in ("p2", "p3", "k3"):
        rep = corollary_check(catalog_get(name))
        assert rep.ok, name


def test_corollary_pass_states_how_many_even_degrees_it_decided():
    # the kernel of p3 lies in degrees 0, 2, 4, 6 and 8
    assert [(e.check, e.status, e.details)
            for e in corollary_check(catalog_get("p3")).entries] == [
        ("corollary", "pass", "every even degree's lowest pivot satisfies "
                              "the constraint; even degrees: 5")]


def test_corollary_check_is_vacuous_without_even_degree_generators():
    # the one generator, family 2 of the degree-1 class, lies in degree 1
    d = parse_only(n=1, degrees=[1], compact=False)
    assert [(e.check, e.status, e.details)
            for e in corollary_check(d).entries] == [
        ("corollary", "pass", "no even-degree kernel generators; vacuous")]


def test_corollary_check_requires_vanishing_bockstein():
    with pytest.raises(Sq1NotZero):
        corollary_check(catalog_get("enriques_x"))


def test_corollary_check_fails_on_a_planted_counterexample(monkeypatch):
    # the pools are built once per descriptor, so each plant loads its own
    planted = []
    monkeypatch.setattr(kernel, "kernel_generators", lambda d: planted)

    def plant(name, source, j, power):
        d = catalog_get(name)
        v = d.module.basis_vector(source)
        for _ in range(power):
            v = e_multiply(d, v)
        planted[:] = [KernelGenerator(1, source, j, *v)]
        return d

    # h2 on its own in degree 4 = 2k, k = 2: the e^0 coefficient is nonzero
    # with nothing above it, and l = 2 satisfies 2l > k
    rep = corollary_check(plant("p2", "h2", 0, 0))
    assert [(e.check, e.status, e.details) for e in rep.entries] == [
        ("corollary", "fail", {"degree": 4, "l": 2, "e_power": 0,
                               "coefficient": ["h2"],
                               "combination": [(1, "h2", 0)]})]
    # e*h leads at e-power 1, and l = 1 fails 2l > k
    rep = corollary_check(plant("p2", "h", 1, 1))
    assert rep.ok and rep.statuses() == {"corollary": "pass"}
    # on p3, e*h3 in degree 8 = 2k, k = 4, leads at e-power 1: l = 3
    rep = corollary_check(plant("p3", "h3", 1, 1))
    assert [e.details for e in rep.failures] == [
        {"degree": 8, "l": 3, "e_power": 1, "coefficient": ["h3"],
         "combination": [(1, "h3", 1)]}]


def _failures_by_l_loop(w, k, n, width):
    """Reference scan over every l with 2l > k: (l, k - l) for each l whose
    e-power k - l carries a nonzero coefficient with nothing above it."""
    coeffs = [(w >> j * width) & ((1 << width) - 1) for j in range(n)]
    lead = max(j for j in range(n) if coeffs[j])
    out = []
    for l in range(k // 2 + 1, k + 1):
        p = k - l
        if p < 0 or p >= n:
            continue
        if lead <= p and coeffs[p]:
            out.append((l, p))
    return out


def test_leading_power_test_matches_the_l_loop():
    rng = random.Random(11)
    for _ in range(3000):
        n, width = rng.randint(1, 6), rng.randint(1, 5)
        k = rng.randint(0, 2 * n)
        w = rng.getrandbits(n * width) >> rng.randrange(n * width)
        if not w:
            continue
        p = (w.bit_length() - 1) // width
        want = [(k - p, p)] if 2 * (k - p) > k else []
        assert _failures_by_l_loop(w, k, n, width) == want, (w, k, n, width)
