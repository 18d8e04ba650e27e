"""The kernel layer against direct reference implementations.

The references do the plain thing at every step: elimination on the lowest
set bit, one sq() call per ladder term, every e^j generator by repeated
e_multiply (zero ladders listed too), and a corollary verdict from every
nonzero combination of each even pool. The library reads the stored
squares once, skips the odd-square ladders when no odd square is stored,
builds the ladder of a class without a stored square directly, shifts each
ladder's bits, pivots on leading bits, and decides the corollary from each
degree's lowest pivot; on random Sq tables, Sq^1 != 0 included, on planted
generator pools and on the benchmark's input ladders, both must give the
same answers.
"""

import json
import os
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import OutOfRange, e_multiply
import hilb2
from hilb2 import (catalog_get, catalog_text, corollary_check, exdiv, kernel,
                   kernel_dimensions, kernel_generators, load_descriptor,
                   redundant_degrees)
from hilb2.gf2 import pivots, span_dims_by_degree
from hilb2.kernel import KernelGenerator
from hilb2.report import FAIL, PASS, Entry
from hilb2.spaces import parse_descriptor
from hilb2.steenrod import sq

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "bench"))
import workloads  # noqa: E402  (the benchmark's deep and wide input ladders)


def rank_by_lowest_bit(rows):
    pivots = {}
    for row in rows:
        while row:
            low = row & -row
            if low in pivots:
                row ^= pivots[low]
            else:
                pivots[low] = row
                break
    return len(pivots)


def ladder_by_sq(d, u, top_power, first_sq, degree):
    width = len(d.module.basis)
    if degree > 4 * d.n - 2:  # E has no classes above degree 4n - 2
        return degree, 0
    mask = 0
    for i in range(top_power + 1):
        power = top_power - i
        _, val = sq(d.module, first_sq + 2 * i, u)
        if not val:
            continue
        if power >= d.n:
            raise OutOfRange(f"ladder term e^{power} exceeds e^{d.n - 1}")
        mask ^= val << power * width
    return degree, mask


def generators_by_e_multiply(d):
    """(family, source, j, value) for every generator, zero ones included."""
    out = []
    for name, deg in d.module.basis:
        u = d.module.basis_vector(name)
        a = deg // 2
        if deg % 2 == 0:
            ladders = [(1, ladder_by_sq(d, u, a, 0, 2 * deg), d.n - 1 - a),
                       (3, ladder_by_sq(d, u, a - 1, 1, 2 * deg - 1), d.n - 1 - a)]
        else:
            ladders = [(2, ladder_by_sq(d, u, a, 0, 2 * deg - 1), d.n - 1 - a),
                       (4, ladder_by_sq(d, u, a, 1, 2 * deg), d.n - 2 - a)]
        for family, value, j_max in ladders:
            for j in range(j_max + 1):
                if j > 0:
                    value = e_multiply(d, value)
                out.append((family, name, j, value))
    return out


def corollary_by_span(d, gens):
    """degree -> lowest leading bit of the span, for each even degree where
    some nonzero combination of the generators breaks the constraint; every
    combination is visited once, in Gray-code order."""
    width = len(d.module.basis)
    by_degree = {}
    for g in gens:
        if g.degree % 2 == 0:
            by_degree.setdefault(g.degree, []).append(g.mask)
    failing = {}
    for degree, masks in sorted(by_degree.items()):
        w, leads = 0, set()
        for pick in range(1, 1 << len(masks)):
            w ^= masks[(pick & -pick).bit_length() - 1]
            if w:
                leads.add(w.bit_length())
        k = degree // 2
        if leads and 2 * (k - (min(leads) - 1) // width) > k:
            failing[degree] = min(leads)
    return failing


def corollary_by_rank(d, gens):
    """corollary_by_span for pools too large to enumerate. Some element of
    a span has bit length at most b iff dropping the b lowest bits of every
    row loses rank, so the lowest leading bit is the least such b, found by
    bisection over rank_by_lowest_bit."""
    width = len(d.module.basis)
    by_degree = {}
    for g in gens:
        if g.degree % 2 == 0:
            by_degree.setdefault(g.degree, []).append(g.mask)
    failing = {}
    for degree, masks in sorted(by_degree.items()):
        rank = rank_by_lowest_bit(masks)
        if not rank:
            continue
        lo, hi = 1, max(masks).bit_length()
        while lo < hi:
            mid = (lo + hi) // 2
            if rank_by_lowest_bit([m >> mid for m in masks]) < rank:
                hi = mid
            else:
                lo = mid + 1
        k = degree // 2
        if 2 * (k - (lo - 1) // width) > k:
            failing[degree] = lo
    return failing


def assert_corollary_exact(d, gens, got, reference=corollary_by_span):
    """got fails in exactly the degrees the reference (corollary_by_span
    unless given) finds, once each, with a combination, in list order,
    whose sum has the reported e-power and coefficient and the lowest
    leading bit of its span; where nothing fails it is one PASS that counts
    the even degrees holding a nonzero generator, or the vacuous PASS where
    there are none."""
    failing = reference(d, gens)
    if not failing:
        even = {g.degree for g in gens if g.mask and g.degree % 2 == 0}
        want = ("every even degree's lowest pivot satisfies the constraint; "
                f"even degrees: {len(even)}" if even
                else "no even-degree kernel generators; vacuous")
        assert got.entries == [Entry("corollary", PASS, want)]
        return
    assert [e.details["degree"] for e in got.entries] == sorted(failing)
    assert all(e.status == FAIL for e in got.entries)
    width = len(d.module.basis)
    for e in got.entries:
        degree = e.details["degree"]
        pool = [(g.family, g.source, g.j, g.mask) for g in gens
                if g.degree == degree]
        combination = e.details["combination"]
        picked = [(tuple(key), mask) for *key, mask in pool
                  if tuple(key) in combination]
        assert [key for key, _ in picked] == combination
        w = 0
        for _, mask in picked:
            w ^= mask
        assert w.bit_length() == failing[degree]
        k, p = degree // 2, (w.bit_length() - 1) // width
        _, coeff = exdiv.coefficient(d, (degree, w), p)
        assert (e.details["l"], e.details["e_power"]) == (k - p, p)
        assert e.details["coefficient"] == sorted(d.module.names(coeff))


def random_table(rng, sq1=True):
    """A structurally parsed descriptor with a random Sq table. Squares may
    break instability or land in the wrong degree; with sq1 False no Sq^1
    is stored, but odd squares above it may be."""
    n = rng.randint(1, 4)
    compact = rng.random() < 0.5
    high = 2 * n if compact else 2 * n - 1
    degrees = [0] + sorted(rng.randint(1, high) for _ in range(rng.randint(0, 6)))
    if compact:
        degrees.append(2 * n)
    names = [f"c{i}" for i in range(len(degrees))]
    entries = {}
    for _ in range(rng.randint(0, 8)):
        src = rng.randrange(len(names))
        k = rng.randint(1 if sq1 else 2, 2 * n + 1)
        fits = [i for i, deg in enumerate(degrees) if deg == degrees[src] + k]
        pool = fits if fits and rng.random() < 0.8 else range(len(names))
        targets = rng.sample(list(pool), rng.randint(1, min(2, len(pool))))
        entries[k, src] = [names[i] for i in sorted(targets)]
    obj = {"name": "random", "complex_dimension": n, "compact": compact,
           "classes": [{"name": c, "degree": deg} for c, deg in zip(names, degrees)],
           "sq": [{"k": k, "from": names[src], "to": to}
                  for (k, src), to in sorted(entries.items())]}
    return parse_descriptor(json.dumps(obj))


def _listing(gens):
    return [(g.family, g.source, g.j, g.degree, g.mask) for g in gens]


@settings(max_examples=150, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_generators_and_dimensions_match_the_references(rng):
    d = random_table(rng)
    ref = generators_by_e_multiply(d)
    gens = kernel_generators(d)
    # zero ladders are not listed; everything else is, in the same order
    assert _listing(gens) == [(f, s, j, *v) for f, s, j, v in ref if v[1]]
    assert all(not g.is_zero for g in gens)
    by_degree = {}
    for *_, (degree, mask) in ref:
        if mask:
            by_degree.setdefault(degree, []).append(mask)
    assert kernel_dimensions(d) == {deg: rank_by_lowest_bit(rows)
                                    for deg, rows in sorted(by_degree.items())
                                    if rank_by_lowest_bit(rows)}


@settings(max_examples=150, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_ladder_matches_one_sq_call_per_term(rng):
    d = random_table(rng)
    m = d.module
    degree = rng.randint(-1, 2 * d.n + 1)
    u = (degree, rng.getrandbits(len(m.basis)))
    s = rng.randint(0, 1)
    t = (degree - s) // 2
    assert exdiv._ladder(d, u, s) == ladder_by_sq(d, u, t, s, degree + s + 2 * t)


def test_ladder_carry_rule_on_explicit_cases():
    # on a surface (n = 2) with one class u of degree 2, Sq^2 u = v
    d = parse_descriptor(json.dumps({
        "name": "carry", "complex_dimension": 2, "compact": True,
        "classes": [{"name": "1", "degree": 0}, {"name": "u", "degree": 2},
                    {"name": "v", "degree": 4}],
        "sq": [{"k": 2, "from": "u", "to": ["v"]}]}))
    u, v = d.module.basis_vector("u"), d.module.basis_vector("v")
    # L_0(v) = e^2 v reaches e^2 = e^n, in degree 8 > 4n - 2: the group is
    # zero, whatever the carry
    assert exdiv._ladder(d, v, 0) == (8, 0)
    assert ladder_by_sq(d, v, 2, 0, 8) == (8, 0)
    # only the odd squares of u are read, and it has none
    assert exdiv._ladder(d, u, 1) == (3, 0)
    want = ladder_by_sq(d, u, 1, 0, 4)
    assert exdiv._ladder(d, u, 0) == want and want[1]


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.integers(min_value=0, max_value=(1 << 12) - 1),
                     max_size=12))
def test_leading_bit_rank_matches_the_lowest_bit_rank(rows):
    assert len(pivots(rows)) == rank_by_lowest_bit(rows)
    assert len(pivots(rows[::-1])) == rank_by_lowest_bit(rows)


def test_leading_bit_rank_eliminates_shared_leading_bits():
    # all three rows lead at bit 3; only two are independent
    assert len(pivots([0b1001, 0b1010, 0b0011])) == 2
    assert len(pivots([0b1001, 0b1010, 0b1100, 0b0110])) == 3
    assert span_dims_by_degree([(4, 0b1000), (4, 0b1000), (4, 0)]) == {4: 1}


@settings(max_examples=100, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_corollary_matches_the_reference_on_random_tables(rng):
    d = random_table(rng, sq1=False)
    got = corollary_check(d)
    assert_corollary_exact(d, kernel_generators(d), got)


def planted_pool(rng, d):
    """Generators of a few even degrees whose masks share leading bits:
    each new mask reuses the leading bit of an earlier one about half of
    the time, and some sums cancel outright."""
    width = len(d.module.basis)
    span = d.n * width
    gens = []
    even = range(0, 4 * d.n - 1, 2)
    for degree in rng.sample(even, rng.randint(1, min(3, len(even)))):
        masks = []
        for j in range(rng.randint(1, 6)):
            if masks and rng.random() < 0.5:
                lead = max(masks).bit_length() - 1
                mask = 1 << lead | rng.getrandbits(lead) if lead else 1
            else:
                mask = rng.getrandbits(span) or 1
            if masks and rng.random() < 0.2:
                mask = masks[-1]  # a repeated generator cancels in pairs
            masks.append(mask)
            gens.append(KernelGenerator(rng.randint(1, 4), f"c{j % width}", j,
                                        degree, mask))
    return gens


@settings(max_examples=100, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_corollary_matches_the_reference_on_colliding_pools(rng):
    d = random_table(rng, sq1=False)
    gens = planted_pool(rng, d)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "kernel_generators", lambda d: gens)
        got = corollary_check(d)
    assert_corollary_exact(d, gens, got)


@settings(max_examples=100, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_the_rank_reference_matches_the_span_reference(rng):
    d = random_table(rng, sq1=False)
    for gens in (kernel_generators(d), planted_pool(rng, d)):
        assert corollary_by_rank(d, gens) == corollary_by_span(d, gens)


def test_planted_pools_do_collide_and_fail():
    collided = failed = 0
    for seed in range(100):
        rng = random.Random(seed)
        d = random_table(rng, sq1=False)
        gens = planted_pool(rng, d)
        leads = {}
        for g in gens:
            key = (g.degree, g.mask.bit_length())
            leads[key] = leads.get(key, 0) + 1
        collided += any(count > 1 for count in leads.values())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernel, "kernel_generators", lambda d: gens)
            failed += not corollary_check(d).ok
    assert collided > 30 and failed > 30


def test_corollary_matches_the_reference_on_the_benchmark_ladders(tmp_path):
    # the deep and wide rungs reach pools that the catalog does not: up to
    # 60 even degrees, and over 100 generators in one input
    most_degrees = most_generators = 0
    for workload in ("deep", "wide"):
        ladder, _ = workloads.build(workload, hilb2, 0, str(tmp_path))
        for desc in ladder:
            d = load_descriptor(json.dumps(desc))
            gens = kernel_generators(d)
            even = {g.degree for g in gens if g.degree % 2 == 0}
            most_degrees = max(most_degrees, len(even))
            most_generators = max(most_generators, len(gens))
            assert_corollary_exact(d, gens, corollary_check(d),
                                   reference=corollary_by_rank)
    assert most_degrees >= 60 and most_generators > 100


def test_no_degree_can_fail_on_a_loaded_descriptor(tmp_path):
    # with Sq^1 = 0 the loader leaves only families 1 and 2. An even
    # degree 2k = 2 deg u + 2j holds e^j L_0(u) of an even class u, which
    # leads at e-power p = j + deg u / 2, and 2(k - p) = deg u <= k; so the
    # corollary never collects a pool, and its one read of the list is the
    # pools' read
    descs = [json.loads(catalog_text(name)) for name in ("p1", "p2", "p3", "k3")]
    for workload in ("deep", "wide"):
        descs += workloads.build(workload, hilb2, 0, str(tmp_path))[0]
    for desc in descs:
        d = load_descriptor(json.dumps(desc))
        calls = []

        def listed(d, _list=kernel_generators(d)):
            calls.append(d)
            return _list

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernel, "kernel_generators", listed)
            assert corollary_check(d).ok, desc["name"]
        assert len(calls) == 1, desc["name"]


def test_ranks_and_redundancy_match_a_full_elimination_on_the_ladders(tmp_path):
    # every deep and wide benchmark rung, each degree eliminated from scratch
    for workload in ("deep", "wide"):
        ladder, _ = workloads.build(workload, hilb2, 0, str(tmp_path))
        for desc in ladder:
            d = load_descriptor(json.dumps(desc))
            by_degree = {}
            for g in kernel_generators(d):
                by_degree.setdefault(g.degree, []).append(g.mask)
            ranks = {deg: rank_by_lowest_bit(rows)
                     for deg, rows in sorted(by_degree.items())}
            assert kernel_dimensions(d) == {
                deg: rank for deg, rank in ranks.items() if rank}, desc["name"]
            assert redundant_degrees(d) == {
                deg: (len(by_degree[deg]), rank) for deg, rank in ranks.items()
                if len(by_degree[deg]) != rank}, desc["name"]


def test_corollary_counts_without_summing_where_no_lead_can_fail():
    # on p3 (N = 4, n = 3) a degree-2k element fails iff it leads at an
    # e-power p with 2(k - p) > k
    d = catalog_get("p3")

    def gen(degree, mask, j):
        return KernelGenerator(1, "h", j, degree, mask)

    # degree 4: leads e^2 and e*h (p = 2, 1), so no combination can fail;
    # degree 8: leads e^2*h2 (p = 2, passes) and e*h3 (p = 1, fails)
    safe = [gen(4, 1 << 8 | 1 << 2, 0), gen(4, 1 << 5, 1)]
    mixed = [gen(8, 1 << 10, 0), gen(8, 1 << 7, 1)]
    gens = safe + mixed
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "kernel_generators", lambda d: gens)
        got = corollary_check(d)
    assert_corollary_exact(d, gens, got)
    assert [(e.details["degree"], e.details["l"], e.details["combination"])
            for e in got.failures] == [(8, 3, [(1, "h", 1)])]


def test_corollary_fails_where_only_a_sum_of_generators_breaks_it():
    # on p3 both degree-8 generators lead at e^2*h2 (p = 2, passes), but
    # their sum e*h3 leads at p = 1 with 2(4 - 1) > 4: only the echelon
    # form of the pool, not the generators' own leading bits, shows it
    d = catalog_get("p3")
    gens = [KernelGenerator(1, "h", j, 8, mask)
            for j, mask in enumerate((1 << 10 | 1 << 7, 1 << 10))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "kernel_generators", lambda d: gens)
        got = corollary_check(d)
    assert_corollary_exact(d, gens, got)
    assert [e.details for e in got.failures] == [
        {"degree": 8, "l": 3, "e_power": 1, "coefficient": ["h3"],
         "combination": [(1, "h", 0), (1, "h", 1)]}]


def interleaved_p3_pool():
    """On p3 (N = 4, n = 3) the pools of degrees 4 and 8 each fail, and
    their generators are interleaved in the list. Degree 4 holds
    h2 = (e*h + h2) + e*h, and degree 8 holds e*h3 = X + Y = Y + Z; degree
    0 cannot fail."""
    def bit(p, i):  # e^p times class i
        return 1 << 4 * p + i

    return [KernelGenerator(1, "h2", 1, 8, bit(2, 2) | bit(1, 3)),  # X
            KernelGenerator(1, "h", 0, 4, bit(1, 1) | bit(0, 2)),
            KernelGenerator(1, "1", 0, 0, bit(0, 0)),
            KernelGenerator(2, "h2", 0, 8, bit(2, 2)),  # Y
            KernelGenerator(1, "h", 1, 4, bit(1, 1)),
            KernelGenerator(3, "h3", 2, 8, bit(2, 2) | bit(1, 3))]  # Z


INTERLEAVED_FAILURES = [
    (4, [(1, "h", 0), (1, "h", 1)]), (8, [(1, "h2", 1), (2, "h2", 0)])]


def test_a_degree_that_can_fail_collects_its_generators_in_list_order():
    d = catalog_get("p3")
    gens = interleaved_p3_pool()
    calls = []

    def listed(d):
        calls.append(d)
        return gens

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "kernel_generators", listed)
        got = corollary_check(d)
    assert_corollary_exact(d, gens, got)
    assert [(e.details["degree"], e.details["combination"])
            for e in got.failures] == INTERLEAVED_FAILURES
    # one read for the pools, then one for each failing degree: 4 and 8
    assert len(calls) == 3


def test_a_planted_failing_pool_fails_for_every_seed_and_sample_count():
    # the verdict comes from the echelon form alone: no seed or sample
    # count is left to change it, and every entry is a FAIL
    gens = interleaved_p3_pool()
    want = [(FAIL, degree, combination)
            for degree, combination in INTERLEAVED_FAILURES]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "kernel_generators", lambda d: gens)
        got = corollary_check(catalog_get("p3"))
    assert [(e.status, e.details["degree"], e.details["combination"])
            for e in got.entries] == want


@pytest.mark.parametrize("name, parities", [("k3", 1), ("enriques_x", 2)])
def test_odd_square_ladders_only_where_an_odd_square_is_stored(name, parities):
    # one _ladder call per square parity built for each class with a stored
    # square row; every other class takes the direct path. k3 stores no
    # square (0 calls); enriques_x stores rows for two classes, an odd
    # square among them, so both parities are built (4 calls)
    d = parse_descriptor(catalog_text(name))
    calls, summed = [], []
    ladder, squares_of = exdiv._ladder, exdiv.steenrod._squares_of

    def ladder_and_count(*args):
        calls.append(args[1])
        return ladder(*args)

    def squares_of_and_count(*args):
        summed.append(args)
        return squares_of(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exdiv, "_ladder", ladder_and_count)
        mp.setattr(exdiv.steenrod, "_squares_of", squares_of_and_count)
        kernel_generators(d)
    assert sorted(mask.bit_length() - 1 for _, mask in calls) == sorted(
        list(d.module.sq) * parities)
    assert len(calls) == {"k3": 0, "enriques_x": 4}[name]
    # each ladder reads the stored squares of its class once
    assert len(summed) == len(calls)


def test_an_odd_square_above_sq1_still_builds_family_4():
    # Sq^1 = 0, but Sq^3 u = v makes e^0 Sq^3 u a family 4 generator
    d = parse_descriptor(json.dumps({
        "name": "sq3", "complex_dimension": 3, "compact": False,
        "classes": [{"name": "1", "degree": 0}, {"name": "u", "degree": 3},
                    {"name": "v", "degree": 6}],
        "sq": [{"k": 3, "from": "u", "to": ["v"]}]}))
    gens = kernel_generators(d)
    assert (4, "u", 0, 6, 0b100) in _listing(gens)
    assert _listing(gens) == [(f, s, j, *v)
                              for f, s, j, v in generators_by_e_multiply(d)
                              if v[1]]
