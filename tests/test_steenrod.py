"""Steenrod action on a named basis: sq, Adem expansion, and the validator."""

import pytest

from conftest import make_descriptor, parse_only
from hilb2 import catalog_get, catalog_names, steenrod
from hilb2.gf2 import F2Vector
from hilb2.steenrod import (
    UnknownClass,
    UnstableModule,
    adem_expand,
    is_sq1_zero,
    sq,
    validate,
)


def simple_module():
    return UnstableModule(
        basis=(("1", 0), ("t", 1), ("t2", 2), ("s", 3), ("top", 4)),
        sq={1: {"t": frozenset({"t2"})}},
        cup=None,
        top_degree=4,
    )


def test_sq0_is_identity():
    m = simple_module()
    v = m.basis_vector("t2")
    assert sq(m, 0, v) == v


def test_sq_above_degree_vanishes():
    m = simple_module()
    assert sq(m, 2, m.basis_vector("t")).is_zero()
    assert sq(m, 5, m.basis_vector("top")).is_zero()
    assert sq(m, -1, m.basis_vector("t")).is_zero()


def test_sq_is_additive():
    m = UnstableModule(
        basis=(("1", 0), ("a", 1), ("b", 1), ("x", 2)),
        sq={1: {"a": frozenset({"x"}), "b": frozenset({"x"})}},
        cup=None,
        top_degree=4,
    )
    both = m.basis_vector("a") + m.basis_vector("b")
    assert sq(m, 1, both).is_zero()  # the two images cancel
    assert sq(m, 1, m.basis_vector("a")) == m.basis_vector("x")


def test_sq_unknown_name_raises():
    m = simple_module()
    with pytest.raises(UnknownClass):
        sq(m, 1, F2Vector(1, 1 << len(m.basis)))  # no class has this bit
    with pytest.raises(UnknownClass):
        m.basis_vector("ghost")


def test_adem_small_expansions():
    assert adem_expand(1, 1) == []
    assert adem_expand(1, 2) == [(3, 0)]
    assert adem_expand(2, 2) == [(3, 1)]
    assert adem_expand(3, 2) == []
    assert adem_expand(1, 3) == []
    assert set(adem_expand(2, 4)) == {(6, 0), (5, 1)}


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


def test_unknown_class_in_sq_table_fails():
    m = UnstableModule(
        basis=(("1", 0), ("x", 2)),
        sq={1: {"ghost": frozenset({"x"})}},
        cup=None,
        top_degree=4,
    )
    rep = validate(m)
    assert not rep.ok
    assert rep.statuses()["unknown-class"] == "fail"


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


def test_validation_without_stored_squares_makes_no_sq_call(monkeypatch):
    # Sq^b u = 0 for b > deg u and for a class with no stored square, so
    # the Adem check has nothing to try on a point or a sphere
    calls = []
    real = steenrod.sq
    monkeypatch.setattr(steenrod, "sq",
                        lambda *args: calls.append(args) or real(*args))
    for degrees, compact in (([0], False), ([0, 60], True)):
        d = parse_only(n=30, degrees=degrees, compact=compact)
        assert validate(d.module).ok
    assert calls == []


def test_one_class_descriptor_with_large_n_loads():
    assert make_descriptor(n=500, degrees=[0], compact=False).n == 500
