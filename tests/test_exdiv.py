"""Classes on the exceptional divisor and the boundary ladders."""

import json
import random

import pytest

from conftest import e_multiply, parse_only
from hilb2 import (
    betti_exceptional,
    boundary_no_b,
    boundary_with_b,
    catalog_get,
    catalog_names,
    catalog_text,
    coefficient,
    format_exclass,
    hilb_restriction,
    load_descriptor,
)
from hilb2.steenrod import UnknownClass


def leading_power(d, c):
    """Highest e-power with a nonzero coefficient in c; None when c is zero."""
    _, mask = c
    return (mask.bit_length() - 1) // len(d.module.basis) if mask else None


def test_from_base_and_e_multiply_shift():
    # a class of X pulls back to E with the same bits, at e-power 0
    d = catalog_get("p2")
    h = d.module.basis_vector("h")
    assert h == (2, 0b010)
    assert leading_power(d, h) == 0
    eh = e_multiply(d, h)
    assert eh == (4, h[1] << len(d.module.basis))
    assert leading_power(d, eh) == 1
    assert coefficient(d, eh, 1) == h
    assert coefficient(d, eh, 0) == (4, 0)


def test_zero_class_properties():
    d = catalog_get("p3")
    z = (5, 0)
    assert leading_power(d, z) is None
    assert [coefficient(d, z, j) for j in range(d.n)] == [(5, 0), (3, 0), (1, 0)]
    assert format_exclass(d, z) == "0"


def test_coefficient_outside_the_e_powers_is_zero():
    # e-powers run from 0 to n - 1; any other j reads the zero class of
    # degree deg(c) - 2j, for j < 0 as for j >= n
    d = catalog_get("p2")  # n = 2, N = 3
    c = (4, 0b111111)  # e*(1 + h + h2) + (1 + h + h2), bits 0 to 5
    assert [coefficient(d, c, j) for j in range(-2, 4)] == [
        (8, 0), (6, 0), (4, 0b111), (2, 0b111), (0, 0), (-2, 0)]


def test_boundary_of_unit_vanishes():
    for name in catalog_names():
        d = catalog_get(name)
        one = d.module.basis_vector(d.module.unit())
        assert boundary_no_b(d, one) == (-1, 0)


def test_boundary_of_a_bit_outside_the_basis_raises():
    d = catalog_get("p2")  # three classes
    with pytest.raises(UnknownClass) as exc:
        boundary_no_b(d, (2, 1 << 3))
    assert exc.value.args == ("bit 3 is not a basis class",)


def test_format_exclass_of_a_bit_outside_e_raises():
    # H*(E) of p2 (n = 2, N = 3) holds only 1 and e, bits 0 to 5: bit 10
    # would be e^3*h and bit 6 e^2
    d = catalog_get("p2")
    assert format_exclass(d, (4, 1 << 4 | 1 << 2)) == "e*h + h2"
    for bit in (6, 10):
        with pytest.raises(UnknownClass) as exc:
            format_exclass(d, (4, 1 << bit))
        assert exc.value.args == (f"bit {bit} is not a class of E",)


def test_boundary_no_b_on_odd_class_starts_with_base_term():
    # deg(u) = 2a+1 gives sum e^(a-i) Sq^(2i) u, whose i = 0 term is e^a u
    d = catalog_get("enriques_x")
    t = d.module.basis_vector("t")
    out = boundary_no_b(d, t)
    assert out == (1, t[1])
    assert coefficient(d, out, 0) == t


def test_boundary_no_b_on_even_class_is_odd_square_ladder():
    # for deg(u) = 2 the only term is Sq^1 u
    d = catalog_get("enriques_x")
    x1 = d.module.basis_vector("x1")
    assert coefficient(d, boundary_no_b(d, x1), 0) == d.module.basis_vector("s")
    d2 = catalog_get("p2")
    assert boundary_no_b(d2, d2.module.basis_vector("h")) == (3, 0)


def test_boundary_with_b_on_bockstein_class():
    d = catalog_get("enriques_x")
    t = d.module.basis_vector("t")
    assert boundary_with_b(d, t) == d.module.basis_vector("t2")


def test_boundary_with_b_even_ladder_on_projective_plane():
    d = catalog_get("p2")
    h = d.module.basis_vector("h")
    out = boundary_with_b(d, h)
    assert out[0] == 4
    assert coefficient(d, out, 1) == h
    assert coefficient(d, out, 0) == d.module.basis_vector("h2")
    assert format_exclass(d, out) == "e*h + h2"


def test_boundary_maps_are_additive():
    d = catalog_get("enriques_x")
    rng = random.Random(5)
    degree2 = [name for name, deg in d.module.basis if deg == 2]
    for _ in range(20):
        u, v = (sum(d.module.basis_vector(n)[1] for n in degree2
                    if rng.random() < 0.5) for _ in range(2))
        for bdry in (boundary_no_b, boundary_with_b):
            (deg_u, bu), (deg_v, bv) = bdry(d, (2, u)), bdry(d, (2, v))
            assert deg_u == deg_v
            assert bdry(d, (2, u ^ v)) == (deg_u, bu ^ bv)


def test_hilb_restriction_rejects_odd_degrees():
    d = catalog_get("enriques_x")
    with pytest.raises(ValueError):
        hilb_restriction(d, d.module.basis_vector("t"))


def test_hilb_restriction_matches_with_b_ladder_everywhere():
    # including the top class, where both sides land in a vanishing group
    for name in catalog_names():
        d = catalog_get(name)
        for cls, deg in d.module.basis:
            if deg % 2:
                continue
            u = d.module.basis_vector(cls)
            assert hilb_restriction(d, u) == boundary_with_b(d, u), (name, cls)


def test_top_degree_ladder_vanishes():
    # deg(u) = 2n pushes the leading term to e^n, which lies in the zero
    # group H^(4n) of the (4n-2)-manifold E
    for name in catalog_names():
        d = catalog_get(name)
        top = next(name for name, deg in d.module.basis if deg == 2 * d.n)
        assert boundary_with_b(d, d.module.basis_vector(top)) == (4 * d.n, 0)


def test_a_ladder_above_the_top_degree_of_e_is_zero():
    # E has no classes above degree 4n - 2, whatever squares the parse-only
    # tables store: Sq^3 u = v at n = 1 would give L_1(u) = v in degree 6,
    # and Sq^1 t = x at n = 2 would give L_1(t) = e*x in degree 7
    d = parse_only(n=1, degrees=[0, 3, 6],
                   sq=[{"k": 3, "from": "c1", "to": ["c2"]}])
    assert boundary_with_b(d, d.module.basis_vector("c1")) == (6, 0)
    d = parse_only(n=2, degrees=[0, 4, 5],
                   sq=[{"k": 1, "from": "c1", "to": ["c2"]}])
    assert boundary_no_b(d, d.module.basis_vector("c1")) == (7, 0)


def test_ladder_powers_stay_below_a():
    # every term of either ladder on u has e-power at most floor(deg(u)/2)
    for name in catalog_names():
        d = catalog_get(name)
        for cls, deg in d.module.basis:
            if deg == 2 * d.n:
                continue
            u = d.module.basis_vector(cls)
            for out in (boundary_no_b(d, u), boundary_with_b(d, u)):
                lead = leading_power(d, out)
                assert lead is None or lead <= deg // 2


def test_betti_exceptional_rows():
    assert betti_exceptional(catalog_get("p2")).as_row() == \
        (1, 0, 2, 0, 2, 0, 1)
    assert betti_exceptional(catalog_get("enriques_x")).as_row() == \
        (1, 1, 13, 2, 13, 1, 1)
    assert betti_exceptional(catalog_get("p1")).as_row() == (1, 0, 1)


def test_betti_exceptional_is_shifted_sum_of_base_row():
    for name in catalog_names():
        d = catalog_get(name)
        table = betti_exceptional(d)
        base = {}
        for _, deg in d.module.basis:
            base[deg] = base.get(deg, 0) + 1
        for k in range(4 * d.n - 1):
            expected = sum(base.get(k - 2 * j, 0) for j in range(d.n))
            assert table.dim(k) == expected


def test_format_exclass_examples():
    d = catalog_get("p2")
    ladder = boundary_with_b(d, d.module.basis_vector("h"))
    assert format_exclass(d, ladder) == "e*h + h2"
    unit_term = e_multiply(d, d.module.basis_vector("1"))
    assert format_exclass(d, unit_term) == "e"
    # the unit is found by its degree, not by its place in the basis
    obj = json.loads(catalog_text("p2"))
    obj["classes"].reverse()
    rev = load_descriptor(json.dumps(obj))
    assert [name for name, _ in rev.module.basis] == ["h2", "h", "1"]
    one, h = rev.module.basis_vector("1"), rev.module.basis_vector("h")
    assert format_exclass(rev, e_multiply(rev, one)) == "e"
    assert format_exclass(rev, (2, e_multiply(rev, one)[1] ^ h[1])) == "e + h"
    assert format_exclass(rev, boundary_with_b(rev, h)) == "e*h + h2"
