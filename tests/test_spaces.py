"""Descriptor parsing, validation, serialization, and base Betti tables."""

import json

import pytest

from conftest import descriptor_obj, make_descriptor
from hilb2 import (
    BettiTable,
    DescriptorError,
    InvalidDescriptor,
    betti_of_x,
    catalog_get,
    catalog_names,
    catalog_text,
    descriptor_to_json,
    load_descriptor,
    parse_descriptor,
)


def parse(obj):
    return parse_descriptor(json.dumps(obj))


def test_minimal_descriptor_round_trips():
    d = make_descriptor(n=1, degrees=[0, 2])
    assert d.n == 1
    assert d.module.basis == (("c0", 0), ("c1", 2))
    assert d.module.top_degree == 2
    again = load_descriptor(descriptor_to_json(d))
    assert again == d


def test_catalog_round_trips_exactly():
    for name in catalog_names():
        d = catalog_get(name)
        assert load_descriptor(descriptor_to_json(d)) == d
        # the shipped text is already in canonical form
        assert descriptor_to_json(d) == catalog_text(name)


def test_invalid_json_is_rejected():
    with pytest.raises(DescriptorError):
        parse_descriptor("{not json")
    with pytest.raises(DescriptorError):
        parse_descriptor("[1, 2]")


def test_unknown_top_level_key_rejected():
    obj = descriptor_obj(n=1, degrees=[0, 2])
    obj["extra"] = 1
    with pytest.raises(DescriptorError) as exc:
        parse(obj)
    assert exc.value.location == "top level"


def test_missing_required_key_rejected():
    obj = descriptor_obj(n=1, degrees=[0, 2])
    del obj["classes"]
    with pytest.raises(DescriptorError):
        parse(obj)


def test_dimension_must_be_positive_integer():
    for bad in [0, -1, True, "2", 1.5]:
        obj = descriptor_obj(n=1, degrees=[0, 2])
        obj["complex_dimension"] = bad
        with pytest.raises(DescriptorError):
            parse(obj)


def test_duplicate_class_name_rejected():
    obj = descriptor_obj(n=1, classes=[{"name": "a", "degree": 0},
                                       {"name": "a", "degree": 2}])
    with pytest.raises(DescriptorError) as exc:
        parse(obj)
    assert exc.value.location == "classes[1]"


def test_negative_or_bool_degree_rejected():
    for bad in [-1, True]:
        obj = descriptor_obj(n=1, classes=[{"name": "a", "degree": bad}])
        with pytest.raises(DescriptorError):
            parse(obj)


def test_sq_entry_errors_carry_location():
    base = dict(n=1, degrees=[0, 1, 2])
    for sq in ([{"k": 0, "from": "c1", "to": ["c2"]}],
               [{"k": 1, "from": "ghost", "to": ["c2"]}],
               [{"k": 1, "from": "c1", "to": ["ghost"]}],
               [{"k": 1, "from": "c1", "to": ["c2", "c2"]}]):
        obj = descriptor_obj(sq=sq, **base)
        with pytest.raises(DescriptorError) as exc:
            parse(obj)
        assert exc.value.location == "sq[0]"


def test_duplicate_sq_entry_rejected_even_with_empty_first():
    obj = descriptor_obj(
        n=1, degrees=[0, 1, 2],
        sq=[{"k": 1, "from": "c1", "to": []},
            {"k": 1, "from": "c1", "to": ["c2"]}])
    with pytest.raises(DescriptorError) as exc:
        parse(obj)
    assert exc.value.location == "sq[1]"


def test_empty_sq_targets_normalize_to_absent():
    d = make_descriptor(n=1, degrees=[0, 1, 2],
                        sq=[{"k": 1, "from": "c1", "to": []}])
    assert d.module.sq == {}


def test_cup_with_unit_operand_rejected():
    obj = descriptor_obj(n=1, degrees=[0, 2],
                         cup=[{"a": "c0", "b": "c1", "result": ["c1"]}])
    with pytest.raises(DescriptorError):
        parse(obj)


def test_cup_duplicate_under_reordering_rejected():
    obj = descriptor_obj(
        n=2, degrees=[0, 1, 3, 4],
        cup=[{"a": "c1", "b": "c2", "result": ["c3"]},
             {"a": "c2", "b": "c1", "result": []}])
    with pytest.raises(DescriptorError) as exc:
        parse(obj)
    assert exc.value.location == "cup[1]"


def test_integral_flags_parse_strictly():
    obj = descriptor_obj(n=1, degrees=[0, 2],
                         integral={"torsion_free": "yes"})
    with pytest.raises(DescriptorError):
        parse(obj)
    obj = descriptor_obj(n=1, degrees=[0, 2], integral={"bogus": True})
    with pytest.raises(DescriptorError):
        parse(obj)


def test_connectedness_enforced():
    with pytest.raises(InvalidDescriptor):
        make_descriptor(n=1, degrees=[0, 0, 2])
    with pytest.raises(InvalidDescriptor):
        make_descriptor(n=1, degrees=[1, 2])


def test_degree_range_enforced():
    with pytest.raises(InvalidDescriptor) as exc:
        make_descriptor(n=1, degrees=[0, 2, 3], compact=False)
    assert any(e.check == "degree-range" for e in exc.value.report.failures)
    # H^2n of a connected noncompact 2n-manifold vanishes
    with pytest.raises(InvalidDescriptor) as exc:
        make_descriptor(n=1, degrees=[0, 2, 2], compact=False)
    failures = exc.value.report.failures
    assert [e.check for e in failures] == ["degree-range", "degree-range"]
    assert "noncompact" in failures[0].details
    # one degree lower is fine, and so is the top class of a compact input
    assert not make_descriptor(n=1, degrees=[0, 1, 1], compact=False).compact
    assert make_descriptor(n=1, degrees=[0, 2]).compact


def test_compactness_needs_palindromic_row_and_unique_top():
    with pytest.raises(InvalidDescriptor):
        make_descriptor(n=2, degrees=[0, 1, 4])  # row 1,1,0,0,1
    with pytest.raises(InvalidDescriptor):
        make_descriptor(n=1, degrees=[0, 2, 2])  # two top classes
    with pytest.raises(InvalidDescriptor):
        make_descriptor(n=2, degrees=[0, 2])  # no class in top degree 4
    # the same rows load fine as noncompact data
    d = make_descriptor(n=2, degrees=[0, 2], compact=False)
    assert not d.compact


def test_torsion_flag_implication_enforced():
    with pytest.raises(InvalidDescriptor):
        make_descriptor(n=1, degrees=[0, 2],
                        integral={"torsion_free": True,
                                  "two_torsion_free": False})


def test_axiom_violations_raise_invalid_descriptor():
    with pytest.raises(InvalidDescriptor) as exc:
        make_descriptor(n=2, degrees=[0, 1, 2, 3, 4],
                        sq=[{"k": 3, "from": "c1", "to": ["c4"]}])
    assert not exc.value.report.ok


def test_betti_of_x_counts_by_degree():
    d = catalog_get("enriques_x")
    assert betti_of_x(d).as_row() == (1, 1, 12, 1, 1)
    assert betti_of_x(catalog_get("p3")).as_row() == (1, 0, 1, 0, 1, 0, 1)


def test_betti_table_accessors():
    t = BettiTable("x", 4, {0: 1, 2: 3, 4: 1})
    assert t.as_row() == (1, 0, 3, 0, 1)
    assert t.dim(2) == 3
    assert t.dim(3) == 0
    assert t.euler() == 5
    assert t.is_palindromic()
    assert not BettiTable("x", 2, {0: 1, 1: 2}).is_palindromic()


def test_betti_table_rejects_bad_entries():
    with pytest.raises(ValueError):
        BettiTable("x", 2, {3: 1})
    with pytest.raises(ValueError):
        BettiTable("x", 2, {1: -1})


def test_export_orders_keys_canonically():
    d = catalog_get("enriques_x")
    obj = json.loads(descriptor_to_json(d))
    assert list(obj) == ["name", "complex_dimension", "compact", "classes",
                         "sq", "integral"]
    assert "cup" not in obj  # no product table stored for this entry
    p2 = json.loads(descriptor_to_json(catalog_get("p2")))
    assert list(p2) == ["name", "complex_dimension", "compact", "classes",
                        "sq", "cup", "integral"]
