"""Steenrod action on a named basis: sq, Adem expansion, and the validator."""

import itertools
import json
import os
import random
import sys
import tracemalloc
from functools import cache
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_descriptor, parse_only
from hilb2 import catalog_get, catalog_names, catalog_text, exdiv, steenrod
from hilb2.report import FAIL, NOTE, Report
from hilb2.spaces import descriptor_to_json, parse_descriptor
from hilb2.steenrod import (
    UnknownClass,
    UnstableModule,
    _shown,
    adem_expand,
    is_sq1_zero,
    sq,
    validate,
)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "bench"))
import inputs  # noqa: E402  (the benchmark's P^n and product generators)


def simple_module():
    return UnstableModule(
        basis=(("1", 0), ("t", 1), ("t2", 2), ("s", 3), ("top", 4)),
        sq={1: {1: 0b100}},  # Sq^1 t = t2
        cup=None,
        top_degree=4,
    )


def test_sq0_is_identity():
    m = simple_module()
    v = m.basis_vector("t2")
    assert sq(m, 0, v) == v


def test_sq_above_degree_vanishes():
    m = simple_module()
    assert sq(m, 2, m.basis_vector("t")) == (3, 0)
    assert sq(m, 5, m.basis_vector("top")) == (9, 0)
    assert sq(m, -1, m.basis_vector("t")) == (0, 0)


def test_sq_is_additive():
    m = UnstableModule(
        basis=(("1", 0), ("a", 1), ("b", 1), ("x", 2)),
        sq={1: {1: 0b1000}, 2: {1: 0b1000}},  # Sq^1 a = Sq^1 b = x
        cup=None,
        top_degree=4,
    )
    both = (1, m.basis_vector("a")[1] ^ m.basis_vector("b")[1])
    assert sq(m, 1, both) == (2, 0)  # the two images cancel
    assert sq(m, 1, m.basis_vector("a")) == m.basis_vector("x")


def test_sq_unknown_name_raises():
    m = simple_module()
    with pytest.raises(UnknownClass):
        sq(m, 1, (1, 1 << len(m.basis)))  # no class has this bit
    # whatever k is: above the degree, zero, or negative
    for k in (5, 0, -1):
        with pytest.raises(UnknownClass):
            sq(m, k, (2, 1 << 40))
    with pytest.raises(UnknownClass):
        m.basis_vector("ghost")


def test_the_degree_table_grows_with_the_basis_not_its_square():
    # one class in each degree 0..2n: stored as masks of the whole basis,
    # degree k's entry would be k + 1 bits wide, N^2 / 16 bytes in all
    # (25 MB at N = 20 001); shifted down to each degree's first class,
    # every entry is one bit, and the peak is the table's dict and the lists
    # that build it, a few hundred bytes a class
    n = 10_000
    m = UnstableModule(tuple((f"c{k}", k) for k in range(2 * n + 1)), {},
                       None, 2 * n)
    tracemalloc.start()
    try:
        assert sq(m, 1, m.basis_vector("c1")) == (2, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 500 * len(m.basis), peak


def test_the_degree_check_finds_a_class_around_or_inside_a_degree_span():
    # degree 2 holds classes 1 and 3: class 0 lies below its first class,
    # class 2 inside its span and class 5 above it
    m = UnstableModule((("1", 0), ("a", 2), ("t", 1), ("b", 2), ("u", 1),
                        ("top", 3)), {}, None, 3)
    assert sq(m, 0, (2, 0b1010)) == (2, 0b1010)
    for mask, name in ((0b1011, "'1' has degree 0"), (0b1110, "'t' has degree 1"),
                       (0b101010, "'top' has degree 3")):
        with pytest.raises(UnknownClass, match=f"class {name}, not 2"):
            sq(m, 1, (2, mask))


def test_cup_product_of_a_bit_outside_the_basis_raises():
    m = catalog_get("p2").module  # three classes
    for v, w in ((0b001, 1 << 7), (1 << 7, 0b010)):
        with pytest.raises(UnknownClass, match="bit 7 is not a basis class"):
            m.cup_product(v, w)


def test_names_of_a_bit_outside_the_basis_raises():
    m = catalog_get("p2").module  # three classes
    assert m.names(0b101) == ("1", "h2")
    for mask in (1 << 3, 0b1 | 1 << 10):
        with pytest.raises(UnknownClass) as exc:
            m.names(mask)
        assert exc.value.args == (
            f"bit {mask.bit_length() - 1} is not a basis class",)


def test_a_negative_mask_is_named_at_every_edge_check():
    # a negative mask has every high bit set; it is no set of classes, and
    # the error names it rather than a bit of the basis
    d = catalog_get("p2")  # classes 1, h, h2
    m = d.module
    calls = {"names": lambda: m.names(-2),
             "cup_product": lambda: m.cup_product(0b010, -2),
             "sq": lambda: sq(m, 1, (2, -2)),
             "ladder": lambda: exdiv.ladder(d, (2, -2), 0),
             "coefficient": lambda: exdiv.coefficient(d, (4, -2), 0),
             "format_exclass": lambda: exdiv.format_exclass(d, (4, -2))}
    for name, call in calls.items():
        with pytest.raises(UnknownClass) as exc:
            call()
        assert exc.value.args == ("mask -2 is negative, not a set of classes",), name


def test_cup_product_without_a_cup_table_raises():
    m = catalog_get("k3").module  # k3 stores no cup table
    with pytest.raises(ValueError) as exc:
        m.cup_product(0b10, 0b10)
    assert exc.value.args == ("module has no cup table",)


def test_adem_small_expansions():
    assert adem_expand(1, 1) == []
    assert adem_expand(1, 2) == [(3, 0)]
    assert adem_expand(2, 2) == [(3, 1)]
    assert adem_expand(3, 2) == []
    assert adem_expand(1, 3) == []
    assert set(adem_expand(2, 4)) == {(6, 0), (5, 1)}


@cache
def _sq_monomial(t: int, e: tuple) -> frozenset:
    """Sq^t x^e in F_2[x_1, x_2, ...] with every x_i of degree 1, as a set of
    exponent tuples: the Cartan formula with Sq^s x^k = C(k, s) x^(k+s)."""
    if not e:
        return frozenset([()]) if t == 0 else frozenset()
    out = set()
    for s in range(min(t, e[0]) + 1):
        if comb(e[0], s) % 2:
            out ^= {(e[0] + s,) + rest for rest in _sq_monomial(t - s, e[1:])}
    return frozenset(out)


def _sq_poly(t: int, poly: set) -> set:
    out = set()
    for e in poly:
        out ^= _sq_monomial(t, e)
    return out


def test_adem_expansions_hold_on_a_product_of_real_projective_spaces():
    # admissible monomials of degree <= 8 act faithfully on x_1...x_8 in
    # H*((RP^inf)^8; F_2), so evaluating both sides there checks every
    # coefficient of adem_expand without reading any other hilb2 code
    u = {(1,) * 8}
    pairs = [(a, b) for b in range(1, 8) for a in range(1, min(2 * b, 9 - b))]
    assert len(pairs) == 19
    for a, b in pairs:
        terms = adem_expand(a, b)
        assert all(d == 0 or c >= 2 * d for c, d in terms), (a, b, terms)
        right = set()
        for c, d in terms:
            right ^= _sq_poly(c, _sq_poly(d, u))
        assert _sq_poly(a, _sq_poly(b, u)) == right, (a, b, terms)


def test_adem_expand_returns_a_list_of_its_own():
    first = adem_expand(2, 4)
    first.append((9, 9))
    first[0] = (0, 0)
    assert adem_expand(2, 4) == [(6, 0), (5, 1)]
    assert adem_expand(2, 4) is not adem_expand(2, 4)


def test_adem_rejects_admissible_left_sides():
    with pytest.raises(ValueError):
        adem_expand(4, 2)  # a >= 2b is already admissible
    with pytest.raises(ValueError):
        adem_expand(0, 2)


def test_is_sq1_zero():
    assert is_sq1_zero(UnstableModule((("1", 0),), {}, None, 0))
    assert not is_sq1_zero(simple_module())
    assert is_sq1_zero(catalog_get("p2").module)
    assert is_sq1_zero(catalog_get("elliptic_y").module)
    assert not is_sq1_zero(catalog_get("enriques_x").module)


def test_catalog_modules_validate_cleanly():
    for name in catalog_names():
        rep = validate(catalog_get(name).module)
        assert rep.ok, (name, [e.details for e in rep.failures])


def test_degree_shift_violation_detected():
    d = parse_only(n=2, degrees=[0, 1, 2, 3],
                        sq=[{"k": 1, "from": "c1", "to": ["c3"]}])
    rep = validate(d.module)
    assert rep.statuses()["degree-shift"] == "fail"


def test_instability_violation_detected():
    d = parse_only(n=3, degrees=[0, 1, 4],
                        sq=[{"k": 3, "from": "c1", "to": ["c2"]}])
    rep = validate(d.module)
    assert rep.statuses()["instability"] == "fail"


def test_adem_violation_detected():
    # Sq^1 Sq^1 = 0, so a nilpotence failure must be flagged
    d = parse_only(n=2, degrees=[0, 1, 2, 3],
                        sq=[{"k": 1, "from": "c1", "to": ["c2"]},
                            {"k": 1, "from": "c2", "to": ["c3"]}])
    rep = validate(d.module)
    assert rep.statuses()["adem"] == "fail"


def test_odd_square_without_bockstein_violates_adem():
    # Sq^3 = Sq^1 Sq^2, so Sq^3 != 0 with Sq^1 = 0 is inconsistent
    d = parse_only(n=3, degrees=[0, 3, 6],
                        sq=[{"k": 3, "from": "c1", "to": ["c2"]}])
    assert is_sq1_zero(d.module)
    rep = validate(d.module)
    assert rep.statuses()["adem"] == "fail"


def test_square_rule_checked_against_cup_table():
    # h cup h = h2 but the stored Sq^2 h is missing
    d = parse_only(
        n=2, degrees=[0, 2, 4],
        cup=[{"a": "c1", "b": "c1", "result": ["c2"]}])
    rep = validate(d.module)
    assert rep.statuses()["square-rule"] == "fail"


def test_square_rule_and_cartan_pass_on_projective_plane():
    # p2 stores a cup table, so both product checks run and stay silent
    rep = validate(catalog_get("p2").module)
    assert rep.ok
    assert "square-rule" not in rep.statuses()
    assert "cartan" not in rep.statuses()


def test_cartan_violation_detected():
    # Sq^2(c1 cup c1) = Sq^2 c2 = c3, but the Cartan sum
    # Sq^2 c1 cup c1 + Sq^1 c1 cup Sq^1 c1 + c1 cup Sq^2 c1 vanishes
    # because the product c1 cup c2 is absent (hence zero)
    d = parse_only(
        n=3, degrees=[0, 2, 4, 6],
        sq=[{"k": 2, "from": "c1", "to": ["c2"]},
            {"k": 2, "from": "c2", "to": ["c3"]}],
        cup=[{"a": "c1", "b": "c1", "result": ["c2"]}])
    rep = validate(d.module)
    assert rep.statuses()["cartan"] == "fail"


def test_missing_cup_table_yields_notes_not_failures():
    rep = validate(catalog_get("k3").module)
    statuses = rep.statuses()
    assert rep.ok
    assert statuses.get("square-rule") == "note"
    assert statuses.get("cartan") == "note"


def test_one_class_descriptor_with_large_n_loads():
    assert make_descriptor(n=500, degrees=[0], compact=False).n == 500


def test_validation_work_does_not_grow_with_the_degree(monkeypatch):
    # classes a, b in degree n with a cup b = top and no stored square:
    # every Sq^i of both sides of the Cartan formula is zero
    calls = []
    product, squares = UnstableModule._product, steenrod._squares_of
    monkeypatch.setattr(UnstableModule, "_product",
                        lambda *args: calls.append("cup") or product(*args))
    monkeypatch.setattr(steenrod, "_squares_of",
                        lambda *args: calls.append("sq") or squares(*args))
    counts = []
    for n in (10, 2000):
        d = parse_only(n=n, degrees=[0, n, n, 2 * n],
                       cup=[{"a": "c1", "b": "c2", "result": ["c3"]}])
        calls.clear()
        assert validate(d.module).ok
        counts.append((calls.count("cup"), calls.count("sq")))
    assert counts[0] == counts[1]


def test_validation_work_does_not_grow_with_the_basis(monkeypatch):
    # cup-free surfaces with N classes in degree 2: the Adem check reads the
    # stored rows only, so it sums no square when none is stored, and the
    # same squares for one stored Sq^2 c1 = top whatever N is
    calls = []
    squares = steenrod._squares_of
    monkeypatch.setattr(steenrod, "_squares_of",
                        lambda *args: calls.append(args) or squares(*args))
    # Sq^b u = 0 for b > deg u and for a class with no stored square, so
    # the Adem check has nothing to try on a point or a sphere
    for degrees, compact in (([0], False), ([0, 60], True)):
        d = parse_only(n=30, degrees=degrees, compact=compact)
        assert validate(d.module).ok
    assert calls == []
    counts = []
    for n_classes in (10, 5000):
        top = f"c{n_classes + 1}"
        for sq_table in (None, [{"k": 2, "from": "c1", "to": [top]}]):
            d = parse_only(n=2, degrees=[0] + [2] * n_classes + [4], sq=sq_table)
            calls.clear()
            assert validate(d.module).ok
            counts.append(len(calls))
    assert counts[:2] == counts[2:]
    assert counts[0] == 0


# Reference: the dense validator, which forms both sides of the Cartan
# formula on every pair x <= y of classes other than the unit, stored in the
# cup table or not, for every i <= deg x + deg y and every j <= i, with each
# term multiplied through the stored table only, and both sides of
# every Adem relation on (degree, mask) pairs, squared class by class from
# the stored rows and summed by XOR.

def add(v, w):
    """The sum of two (degree, mask) vectors of one degree: masks XORed."""
    assert v[0] == w[0], f"cannot add degree {v[0]} to degree {w[0]}"
    return v[0], v[1] ^ w[1]


def dense_validate(m):
    rep = Report()
    members = [1 << t for t in range(len(m.basis))]  # brute force over the basis

    by_k = {}  # k -> {class index -> mask of Sq^k of the class}
    for i, row in m.sq.items():
        for k, mask in row.items():
            by_k.setdefault(k, {})[i] = mask
    for k in sorted(by_k):
        for i, mask in sorted(by_k[k].items()):
            u, du = m.basis[i]
            for t, bit in enumerate(members):
                if mask & bit and m.basis[t][1] != du + k:
                    rep.add("degree-shift", FAIL,
                            f"Sq^{k} {u} contains {m.basis[t][0]} of degree "
                            f"{m.basis[t][1]}, expected degree {du + k}")
            if k > du:
                rep.add("instability", FAIL,
                        f"Sq^{k} {u} is nonzero but k = {k} exceeds deg({u}) = {du}")

    def apply(k, v):
        # Sq^k of a pair, XORed from the stored row of each basis class in
        # it, for 1 <= k <= its degree; unlike sq() it takes a mask with
        # classes of another degree, as a mutant's stored values may be
        degree, mask = v
        if k == 0:
            return v
        acc = 0
        if 1 <= k <= degree:
            for t, bit in enumerate(members):
                if mask & bit:
                    acc ^= m.sq.get(t, {}).get(k, 0)
        return degree + k, acc

    square = cache(lambda i, k: apply(k, (m.basis[i][1], 1 << i)))
    unit = next((t for t, (_, deg) in enumerate(m.basis) if deg == 0), None)

    def times(v, w):
        # bilinear over the bits and read from m.cup by the sorted pair,
        # without cup_product: only stored products count, the unit's too,
        # and a product of classes whose degrees add up to more than the
        # top degree is zero
        (dv, mv), (dw, mw) = v, w
        acc = 0
        right = [t for t, b in enumerate(members) if mw & b]
        for s in [s for s, a in enumerate(members) if mv & a]:
            for t in right:
                if m.basis[s][1] + m.basis[t][1] <= m.top_degree:
                    acc ^= m.cup.get((min(s, t), max(s, t)), 0)
        return dv + dw, acc

    if m.cup is None:
        rep.add("square-rule", NOTE, "no cup table stored; check skipped")
        rep.add("cartan", NOTE, "no cup table stored; check skipped")
    else:
        for i, (name, deg) in enumerate(m.basis):
            if deg < 1:
                continue
            left = square(i, deg)
            right = times(square(i, 0), square(i, 0))
            if left != right:
                rep.add("square-rule", FAIL,
                        f"Sq^{deg} {name} = {_shown(m, left[1])} but "
                        f"{name} cup {name} = {_shown(m, right[1])}")
        pairs = list(itertools.combinations_with_replacement(range(len(members)), 2))
        for ix, iy in pairs:
            (x, dx), (y, dy) = m.basis[ix], m.basis[iy]
            for t, bit in enumerate(members):
                if m.cup.get((ix, iy), 0) & bit and m.basis[t][1] != dx + dy:
                    rep.add("degree-shift", FAIL,
                            f"{x} cup {y} contains {m.basis[t][0]} of degree "
                            f"{m.basis[t][1]}, expected degree {dx + dy}")
        # every pair x <= y, stored or not: an absent product is zero
        for ix, iy in pairs:
            (x, dx), (y, dy) = m.basis[ix], m.basis[iy]
            product = m.cup.get((ix, iy), 0)
            if unit in (ix, iy):
                continue
            for i in range(1, dx + dy + 1):
                left = apply(i, (dx + dy, product))
                right = (dx + dy + i, 0)
                for j in range(i + 1):
                    right = add(right, times(square(ix, j), square(iy, i - j)))
                if left != right:
                    rep.add("cartan", FAIL,
                            f"Sq^{i}({x} cup {y}): table gives "
                            f"{_shown(m, left[1])}, Cartan sum gives "
                            f"{_shown(m, right[1])}")

    squared = {1 << i for i in m.sq}
    for b in range(1, m.top_degree + 1):
        high = [(i, name) for i, (name, deg) in enumerate(m.basis)
                if deg >= b and 1 << i in squared]
        if not high:
            break
        for a in range(1, min(2 * b - 1, m.top_degree - b) + 1):
            expansion = adem_expand(a, b)
            for i, name in high:
                left = apply(a, square(i, b))
                right = (left[0], 0)
                for x, y in expansion:
                    right = add(right, apply(x, square(i, y)))
                if left != right:
                    rep.add("adem", FAIL,
                            f"Sq^{a} Sq^{b} {name} = {_shown(m, left[1])} "
                            f"but the Adem expansion gives {_shown(m, right[1])}")
    return rep


BASES = ([inputs.projective(n) for n in range(1, 6)]
         + [inputs.product(inputs.projective(a), inputs.projective(b))
            for a, b in ((1, 1), (1, 2), (2, 2), (1, 3))]
         + [inputs.product(json.loads(catalog_text("enriques_x")),
                           inputs.projective(1))]
         + [json.loads(catalog_text(name)) for name in catalog_names()])


def mutant(rng):
    """A base descriptor with one to three Sq or cup entries added, dropped
    or replaced. New squares may break instability or land in the wrong
    degree, and new cup results may have the wrong degree."""
    obj = json.loads(json.dumps(rng.choice(BASES)))
    names = [c["name"] for c in obj["classes"]]  # the unit first
    sq_entries = obj.setdefault("sq", [])
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(4 if "cup" in obj else 2)
        if kind == 0:
            k = rng.randint(1, 2 * obj["complex_dimension"] + 1)
            src = rng.choice(names)
            targets = rng.sample(names, rng.randint(1, 2))
            sq_entries[:] = [e for e in sq_entries
                             if (e["k"], e["from"]) != (k, src)]
            sq_entries.append({"k": k, "from": src, "to": targets})
        elif kind == 1 and sq_entries:
            sq_entries.pop(rng.randrange(len(sq_entries)))
        elif kind == 2 and obj["cup"]:
            entry = rng.choice(obj["cup"])
            entry["result"] = rng.sample(names, rng.randint(0, 2))
        elif kind == 3:
            a, b = rng.sample(names[1:], 2) if len(names) > 2 else names[1:] * 2
            if not any({e["a"], e["b"]} == {a, b} for e in obj["cup"]):
                obj["cup"].append({"a": a, "b": b,
                                   "result": rng.sample(names, rng.randint(1, 2))})
    return parse_descriptor(json.dumps(obj))


@settings(max_examples=150, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_validate_matches_the_dense_reference(rng):
    d = mutant(rng)
    assert validate(d.module).entries == dense_validate(d.module).entries
    # the export reads back to the same descriptor, and is canonical
    text = descriptor_to_json(d)
    again = parse_descriptor(text)
    assert again == d
    assert descriptor_to_json(again) == text


def test_reference_comparison_reaches_every_kind_of_failure():
    kinds = set()
    for seed in range(150):
        m = mutant(random.Random(seed)).module
        rep = validate(m)
        assert rep.entries == dense_validate(m).entries
        kinds.update(e.check for e in rep.failures)
    assert {"square-rule", "cartan", "adem", "instability",
            "degree-shift"} <= kinds


def _named(n, classes, sq, cup):
    return parse_only(n=n, classes=[{"name": c, "degree": d} for c, d in classes],
                      sq=sq, cup=cup).module


def test_squares_beyond_instability_as_the_dense_reference_reads_them():
    # h cup h = h has the wrong degree, so Sq^3 of the degree-4 product
    # reads the stored Sq^3 h although 3 > deg h
    m = _named(3, (("1", 0), ("h", 2), ("h2", 4), ("h3", 6)),
               sq=[{"k": 3, "from": "h", "to": ["h3"]}],
               cup=[{"a": "h", "b": "h", "result": ["h"]}])
    rep = validate(m)
    assert rep.entries == dense_validate(m).entries
    assert ("Sq^3(h cup h): table gives {'h3'}, Cartan sum gives 0"
            in [e.details for e in rep.failures])
    # but Sq^2 x with 2 > deg x is no term of the Cartan sum for x cup y,
    # although (Sq^2 x) cup y = z cup y = w is stored
    m = _named(3, (("1", 0), ("x", 1), ("y", 2), ("z", 3), ("w", 5)),
               sq=[{"k": 2, "from": "x", "to": ["z"]}],
               cup=[{"a": "x", "b": "y", "result": ["z"]},
                    {"a": "y", "b": "z", "result": ["w"]}])
    rep = validate(m)
    assert rep.entries == dense_validate(m).entries
    assert rep.statuses() == {"instability": "fail"}


def test_the_cartan_sum_keeps_products_of_a_square_of_the_wrong_degree():
    # Sq^1 x = z lands in degree 1, not 2, so Sq^1 x cup y = z cup y = t is
    # a term of Sq^1(x cup y) although deg x + deg y + 1 = 3 > top = 2; the
    # Cartan sum stops at the top degree only when every square is graded
    m = _named(1, (("1", 0), ("x", 1), ("y", 1), ("z", 1), ("t", 2)),
               sq=[{"k": 1, "from": "x", "to": ["z"]}],
               cup=[{"a": "x", "b": "y", "result": []},
                    {"a": "y", "b": "z", "result": ["t"]}])
    rep = validate(m)
    assert rep.entries == dense_validate(m).entries
    assert ("cartan", "Sq^1(x cup y): table gives 0, Cartan sum gives {'t'}"
            ) in [(e.check, e.details) for e in rep.failures]


def test_the_cartan_sum_keeps_the_unit_times_a_square_above_the_top():
    # built directly, since the loader rejects a product with the unit:
    # Sq^2 y = w lies in degree 4 > top = 2, and 1 cup Sq^2 y = w is a
    # term of Sq^2(1 cup y) that matches the stored Sq^2 y
    m = UnstableModule((("1", 0), ("y", 2), ("w", 4)), {1: {2: 0b100}},
                       {(0, 1): 0b010}, 2)
    rep = validate(m)
    assert rep.entries == dense_validate(m).entries
    assert "cartan" not in rep.statuses()


def test_a_square_on_the_unit_multiplies_through_the_stored_table_only():
    # Sq^1 x = 1 + z has the wrong degree. A Cartan term multiplies through
    # the stored products, so 1 cup y and 1 cup 1 are absent, hence zero:
    # Sq^1 x cup y gives z cup y = t alone, and Sq^1 x cup Sq^1 x gives 0.
    # Read as the identity, the unit would add y and 1 to those sums
    m = _named(1, (("1", 0), ("x", 1), ("y", 1), ("z", 1), ("t", 2)),
               sq=[{"k": 1, "from": "x", "to": ["1", "z"]}],
               cup=[{"a": "x", "b": "x", "result": ["1", "z"]},
                    {"a": "y", "b": "z", "result": ["t"]}])
    rep = validate(m)
    assert rep.entries == dense_validate(m).entries
    assert [(e.check, e.details) for e in rep.failures] == [
        ("degree-shift", "Sq^1 x contains 1 of degree 0, expected degree 2"),
        ("degree-shift", "Sq^1 x contains z of degree 1, expected degree 2"),
        ("degree-shift", "x cup x contains 1 of degree 0, expected degree 2"),
        ("degree-shift", "x cup x contains z of degree 1, expected degree 2"),
        ("cartan", "Sq^1(x cup y): table gives 0, Cartan sum gives {'t'}")]


def gap_shape(pairs):
    """Noncompact, n = 3: x_i and y_i in degree 1 for i < pairs, z and z2
    in degree 2, w in degree 4; Sq^1 x_i = x_i x_i = z, Sq^1 y_i = y_i y_i
    = z2 and z z2 = w. Cartan fails on every absent pair that z z2 reaches:
    (x_i, y_j), (x_i, z2) and (z, y_j), pairs^2 + 2 pairs in all."""
    xs, ys = [f"x{i}" for i in range(pairs)], [f"y{i}" for i in range(pairs)]
    return parse_only(
        n=3, compact=False,
        classes=([{"name": "1", "degree": 0}]
                 + [{"name": c, "degree": 1} for c in xs + ys]
                 + [{"name": "z", "degree": 2}, {"name": "z2", "degree": 2},
                    {"name": "w", "degree": 4}]),
        sq=[{"k": 1, "from": c, "to": [t]} for cs, t in ((xs, "z"), (ys, "z2"))
            for c in cs],
        cup=[{"a": c, "b": c, "result": [t]} for cs, t in ((xs, "z"), (ys, "z2"))
             for c in cs] + [{"a": "z", "b": "z2", "result": ["w"]}]).module


def test_the_cartan_pass_reports_every_absent_pair_of_the_gap_shape():
    m = gap_shape(3)
    assert validate(m).entries == dense_validate(m).entries
    failures = validate(gap_shape(40)).failures
    assert {e.check for e in failures} == {"cartan"}
    assert len(failures) == 40 ** 2 + 2 * 40
    assert failures[0].details == ("Sq^2(x0 cup y0): table gives 0, "
                                   "Cartan sum gives {'w'}")


def test_the_cartan_budget_refuses_a_quadratic_pass_in_one_fail():
    # the pass would form 4 008 001 terms: (2 001)^2 from z z2 and one from
    # each x_i x_i and y_i y_i. The stored pairs have 16 001: (1 + 1)^2 for
    # each x_i x_i and y_i y_i, whose one square is z or z2, and 1 for z z2
    m = gap_shape(2000)
    tracemalloc.start()
    try:
        rep = validate(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [(e.check, e.details) for e in rep.failures] == [(
        "cartan", "the Cartan sums have 4008001 terms, over 16 times the 16001 "
                  "of the stored pairs; check not run")]
    assert peak < 10_000_000, peak


def test_the_cartan_budget_admits_projective_space_of_high_degree():
    # every pair the products of P^n reach is stored, so the pass forms at
    # most twice the terms of the stored pairs, whatever n. P^213 has
    # 880 917, 64 per stored square and product, against 1 914 462
    rep = validate(parse_descriptor(json.dumps(inputs.projective(213))).module)
    assert rep.ok, rep.failures[:1]


def test_a_stored_product_above_the_top_degree_is_zero():
    # h cup h lands in degree 4 > top = 2, so it multiplies to zero
    m = _named(1, (("1", 0), ("h", 2)), sq=[],
               cup=[{"a": "h", "b": "h", "result": ["h"]}])
    assert m.cup_product(0b10, 0b10) == 0
    assert [(e.check, e.details) for e in validate(m).failures] == [
        ("degree-shift", "h cup h contains h of degree 2, expected degree 4")]


def test_the_square_rule_skips_a_second_degree_0_class():
    # o is a degree-0 class that is not the unit; the square rule starts
    # in degree 1, so the stored o cup o is not compared with Sq^0 o
    m = _named(1, (("1", 0), ("o", 0), ("h", 2)), sq=[],
               cup=[{"a": "o", "b": "o", "result": ["o"]}])
    rep = validate(m)
    assert rep.entries == dense_validate(m).entries
    assert rep.ok and "square-rule" not in rep.statuses()
