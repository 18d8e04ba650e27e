"""Descriptor parsing, validation, serialization, and base Betti tables."""

import json
import os
import sys

import pytest

from conftest import REPEATED_KEYS, descriptor_obj, make_descriptor
from hilb2 import (
    BettiTable,
    DescriptorError,
    InvalidDescriptor,
    betti_hilb2_exact,
    betti_of_x,
    catalog_get,
    catalog_names,
    catalog_text,
    descriptor_to_json,
    descriptor_violations,
    gf2,
    load_descriptor,
    parse_descriptor,
    run_suite,
)
from hilb2.steenrod import UnknownClass, UnstableModule, sq

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "bench"))
import inputs  # noqa: E402  (the benchmark's P^n and product generators)


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


@pytest.mark.parametrize("key", sorted(REPEATED_KEYS))
def test_repeated_key_rejected(key):
    with pytest.raises(DescriptorError, match=f"repeated key '{key}'"):
        parse_descriptor(REPEATED_KEYS[key])


def test_the_message_names_the_first_key_that_repeats():
    # b is the first to come back, but a appeared first
    with pytest.raises(DescriptorError, match="repeated key 'a'$"):
        parse_descriptor('{"a": 1, "b": 2, "b": 3, "a": 4}')


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


def test_class_names_must_be_nonempty_ascii():
    for bad in ("", "é"):
        obj = descriptor_obj(n=1, classes=[{"name": "1", "degree": 0},
                                           {"name": bad, "degree": 2}])
        with pytest.raises(DescriptorError) as exc:
            parse(obj)
        assert str(exc.value) == "classes[1]: class names must be nonempty ASCII"
        assert exc.value.location == "classes[1]"


def test_negative_or_bool_degree_rejected():
    for bad in [-1, True]:
        obj = descriptor_obj(n=1, classes=[{"name": "a", "degree": bad}])
        with pytest.raises(DescriptorError):
            parse(obj)


def test_sq_entry_errors_carry_location():
    base = dict(n=1, degrees=[0, 1, 2])
    for sq, message in (
            ([{"k": 0, "from": "c1", "to": ["c2"]}],
             "'k' must be an integer >= 1"),
            ([{"k": 1, "from": "ghost", "to": ["c2"]}], "unknown class 'ghost'"),
            ([{"k": 1, "from": "c1", "to": ["ghost"]}], "unknown class 'ghost'"),
            ([{"k": 1, "from": "c1", "to": ["c2", "c2"]}],
             "repeated target 'c2'")):
        obj = descriptor_obj(sq=sq, **base)
        with pytest.raises(DescriptorError) as exc:
            parse(obj)
        assert exc.value.location == "sq[0]"
        assert str(exc.value) == f"sq[0]: {message}"


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
    # the unit is the first degree-0 class, wherever it is declared
    for degrees, a, b in (([0, 2], "c0", "c1"), ([2, 0], "c0", "c1"),
                          ([2, 0], "c1", "c1")):
        obj = descriptor_obj(n=1, degrees=degrees,
                             cup=[{"a": a, "b": b, "result": ["c0"]}])
        with pytest.raises(DescriptorError) as exc:
            parse(obj)
        assert str(exc.value) == \
            "cup[0]: products with the degree-0 class are implicit"
    # a second degree-0 class is no unit; connectedness rejects it on load
    obj = descriptor_obj(n=1, degrees=[0, 0, 2],
                         cup=[{"a": "c1", "b": "c2", "result": []}])
    assert parse(obj).module.cup == {(1, 2): 0}


def test_cup_duplicate_under_reordering_rejected():
    obj = descriptor_obj(
        n=2, degrees=[0, 1, 3, 4],
        cup=[{"a": "c1", "b": "c2", "result": ["c3"]},
             {"a": "c2", "b": "c1", "result": []}])
    with pytest.raises(DescriptorError) as exc:
        parse(obj)
    assert exc.value.location == "cup[1]"
    # the pair prints by name, in basis order
    assert str(exc.value) == "cup[1]: duplicate cup entry for ('c1', 'c2')"


def test_integral_flags_parse_strictly():
    obj = descriptor_obj(n=1, degrees=[0, 2],
                         integral={"torsion_free": "yes"})
    with pytest.raises(DescriptorError):
        parse(obj)
    obj = descriptor_obj(n=1, degrees=[0, 2], integral={"bogus": True})
    with pytest.raises(DescriptorError):
        parse(obj)


TWO_CLASSES = [{"name": "1", "degree": 0}, {"name": "h", "degree": 2}]

# (change to a valid two-class descriptor, the exact str(DescriptorError))
PARSER_MESSAGES = [
    ({"sq": [1]}, "sq[0]: sq entries must be objects"),
    ({"cup": ["h"]}, "cup[0]: cup entries must be objects"),
    ({"classes": [3]}, "classes[0]: class entries must be objects"),
    ({"name": ""}, "top level: 'name' must be nonempty"),
    ({"cup": [{"a": "zz", "b": "h", "result": []}]},
     "cup[0]: unknown class 'zz'"),
    ({"integral": {"bogus": True}}, "integral: unknown key 'bogus'"),
    ({"integral": {"torsion_free": 1}},
     "integral: 'torsion_free' must be bool, got int"),
    ({"integral": []}, "top level: 'integral' must be dict, got list"),
    ({"sq": [{"k": 2, "from": "h"}]}, "sq[0]: missing key 'to'"),
    ({"classes": [{"name": "1", "degree": 0, "x": 1}]},
     "classes[0]: unknown key 'x'"),
]


@pytest.mark.parametrize("change,message", PARSER_MESSAGES,
                         ids=[message for _, message in PARSER_MESSAGES])
def test_parser_messages_are_exact(change, message):
    obj = {**descriptor_obj(n=1, classes=TWO_CLASSES), **change}
    with pytest.raises(DescriptorError) as exc:
        parse(obj)
    assert str(exc.value) == message


def failures(**kw):
    """(check, details) of each FAIL that rejects the descriptor on load."""
    with pytest.raises(InvalidDescriptor) as exc:
        make_descriptor(**kw)
    return [(e.check, e.details) for e in exc.value.report.failures]


def test_connectedness_enforced():
    with pytest.raises(InvalidDescriptor):
        make_descriptor(n=1, degrees=[0, 0, 2])
    assert failures(n=1, degrees=[1, 2]) == [
        ("connectedness", "expected exactly one degree-0 class, found 0"),
        ("compactness-symmetry",
         "mod-2 Betti numbers (0, 1, 1) are not palindromic")]


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
    assert failures(n=2, degrees=[0, 2]) == [  # no class in top degree 4
        ("compactness-symmetry",
         "compact descriptor needs exactly one class in degree 4"),
        ("compactness-symmetry",
         "mod-2 Betti numbers (1, 0, 1, 0, 0) are not palindromic")]
    assert failures(n=2, degrees=[2]) == [  # neither a unit nor a top class
        ("connectedness", "expected exactly one degree-0 class, found 0"),
        ("compactness-symmetry",
         "compact descriptor needs exactly one class in degree 4")]
    # the same rows load fine as noncompact data
    d = make_descriptor(n=2, degrees=[0, 2], compact=False)
    assert not d.compact


def test_torsion_flag_implication_enforced():
    with pytest.raises(InvalidDescriptor):
        make_descriptor(n=1, degrees=[0, 2],
                        integral={"torsion_free": True,
                                  "two_torsion_free": False})


def test_two_torsion_free_requires_vanishing_sq1():
    sq1 = [{"k": 1, "from": "c1", "to": ["c2"]}]
    with pytest.raises(InvalidDescriptor) as exc:
        make_descriptor(n=2, degrees=[0, 1, 2], compact=False, sq=sq1,
                        integral={"two_torsion_free": True})
    assert [e.check for e in exc.value.report.failures] == ["torsion-flags"]
    # the same data loads once the flag is dropped
    make_descriptor(n=2, degrees=[0, 1, 2], compact=False, sq=sq1)


def test_torsion_free_even_degrees_forbid_odd_classes():
    flags = {"two_torsion_free": True, "torsion_free": True,
             "even_degrees_only": True}
    with pytest.raises(InvalidDescriptor) as exc:
        make_descriptor(n=2, degrees=[0, 1, 3, 4], integral=flags)
    assert [e.check for e in exc.value.report.failures] == ["torsion-flags"]
    # either flag alone allows odd classes
    for key in ("torsion_free", "even_degrees_only"):
        make_descriptor(n=2, degrees=[0, 1, 3, 4],
                        integral=dict(flags, **{key: False}))


def test_hostile_text_is_a_descriptor_error():
    with pytest.raises(DescriptorError, match="nested too deeply"):
        parse_descriptor("[" * 200_000)
    with pytest.raises(DescriptorError, match="not UTF-8"):
        parse_descriptor(b'{"name": "\xff"}')


def test_axiom_violations_raise_invalid_descriptor():
    with pytest.raises(InvalidDescriptor) as exc:
        make_descriptor(n=2, degrees=[0, 1, 2, 3, 4],
                        sq=[{"k": 3, "from": "c1", "to": ["c4"]}])
    assert not exc.value.report.ok


def test_the_sq_table_is_stored_once_by_class_index():
    assert catalog_get("p2").module.sq == {1: {2: 0b100}}
    assert catalog_get("enriques_x").module.sq == {1: {1: 1 << 2},
                                                   3: {1: 1 << 14}}
    assert not hasattr(UnstableModule, "_squares")


def test_equal_stored_masks_are_one_object():
    # a compact surface with Sq^2 c_i = t and c_i c_i = t: every stored
    # mask is the top class, an int beyond the small-int cache, kept once
    c = [f"c{i}" for i in range(300)]
    m = load_descriptor(json.dumps({
        "name": "cupsurf", "complex_dimension": 2, "compact": True,
        "classes": [{"name": "1", "degree": 0}]
        + [{"name": x, "degree": 2} for x in c] + [{"name": "t", "degree": 4}],
        "sq": [{"k": 2, "from": x, "to": ["t"]} for x in c],
        "cup": [{"a": x, "b": x, "result": ["t"]} for x in c]})).module
    masks = [m.sq[i][2] for i in range(1, 301)]
    masks += [m.cup[i, i] for i in range(1, 301)]
    assert masks[0] == 1 << 301
    assert all(mask is masks[0] for mask in masks)


def test_names_stay_at_the_edges():
    # loading, the suite and the exact row read classes by index only; the
    # name -> index map is built by basis_vector, for callers that hold names
    p2xp3 = inputs.product(inputs.projective(2), inputs.projective(3))
    for d in (catalog_get("p3"), load_descriptor(json.dumps(p2xp3))):
        assert d.module.cup
        assert run_suite(d).ok
        betti_hilb2_exact(d)
        assert "_index" not in vars(d.module)
        d.module.basis_vector(d.module.basis[-1][0])
        assert "_index" in vars(d.module)


def test_betti_of_x_counts_by_degree():
    d = catalog_get("enriques_x")
    assert betti_of_x(d).as_row() == (1, 1, 12, 1, 1)
    assert betti_of_x(catalog_get("p3")).as_row() == (1, 0, 1, 0, 1, 0, 1)


def squares(*classes):
    """Sq^2 c = c2 and c cup c = c2 for each named class c of degree 2."""
    return dict(sq=[{"k": 2, "from": c, "to": ["c2"]} for c in classes],
                cup=[{"a": c, "b": c, "result": ["c2"]} for c in classes])


# degrees whose classes interleave in the basis: the unit, the top class
# and each degree's classes are found by degree, not by position
INTERLEAVED = {
    "two units": dict(degrees=[0, 2, 0, 2, 4]),
    "two units, no top class": dict(degrees=[0, 2, 0, 2]),
    "unit and top inside": dict(degrees=[2, 0, 4, 2], **squares("c0", "c3")),
    "degenerate pairing": dict(degrees=[2, 0, 4, 2], **squares("c0")),
}


@pytest.mark.parametrize("kw", INTERLEAVED.values(), ids=list(INTERLEAVED))
def test_interleaved_degrees_are_counted_class_by_class(kw):
    d = parse(descriptor_obj(n=2, **kw))
    degrees, m = kw["degrees"], d.module
    counts = [0] * 5
    for deg in degrees:
        counts[deg] += 1
    row = tuple(counts)
    assert betti_of_x(d).as_row() == row
    expected = []
    if counts[0] != 1:
        expected.append(("connectedness", "expected exactly one degree-0 "
                         f"class, found {counts[0]}"))
    if counts[4] != 1:
        expected.append(("compactness-symmetry", "compact descriptor needs "
                         "exactly one class in degree 4"))
    if row != row[::-1]:
        expected.append(("compactness-symmetry",
                         f"mod-2 Betti numbers {row} are not palindromic"))
    elif len(kw.get("cup", ())) == 1:  # one of two degree-2 classes pairs
        expected.append(("cup-pairing", "the cup pairing H^2 x H^2 -> H^4 "
                         f"has rank 1, not b_2 = {counts[2]}; Poincare "
                         "duality needs it nondegenerate"))
    assert [(e.check, e.details)
            for e in descriptor_violations(d).failures] == expected
    assert m.unit() == f"c{degrees.index(0)}"
    for deg in set(degrees):
        v = deg, sum(1 << i for i, k in enumerate(degrees) if k == deg)
        assert sq(m, 0, v) == v
    for i, deg in enumerate(degrees):
        with pytest.raises(UnknownClass) as exc:
            sq(m, 1, (deg + 1, 1 << i))
        assert exc.value.args == (f"class 'c{i}' has degree {deg}, "
                                  f"not {deg + 1}",)


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
    # rows, and the classes within a row, come out in basis order
    d = parse(descriptor_obj(
        n=1, degrees=[0, 1, 1, 2, 2],
        sq=[{"k": 1, "from": "c2", "to": ["c4", "c3"]},
            {"k": 1, "from": "c1", "to": ["c3"]}],
        cup=[{"a": "c2", "b": "c1", "result": ["c4", "c3"]},
             {"a": "c1", "b": "c1", "result": []}]))
    obj = json.loads(descriptor_to_json(d))
    assert obj["sq"] == [{"k": 1, "from": "c1", "to": ["c3"]},
                         {"k": 1, "from": "c2", "to": ["c3", "c4"]}]
    assert obj["cup"] == [{"a": "c1", "b": "c1", "result": []},
                          {"a": "c1", "b": "c2", "result": ["c3", "c4"]}]


def test_sq1_must_be_self_adjoint_on_a_compact_input():
    # enriques_x with only Sq^1 x1 = s: rank Sq^1 is 0 on H^1 but 1 on H^2
    obj = json.loads(catalog_text("enriques_x"))
    obj["sq"] = [e for e in obj["sq"] if e["from"] != "t"]
    with pytest.raises(InvalidDescriptor) as exc:
        load_descriptor(json.dumps(obj))
    assert [(e.check, e.details) for e in exc.value.report.failures] == [
        ("sq1-self-adjoint", "rank Sq^1 on H^1 is 0 but on H^2 it is 1; on a "
         "closed orientable manifold they agree")]
    # the same Sq^1 on a noncompact input is not constrained
    obj["compact"] = False
    obj["classes"] = [c for c in obj["classes"] if c["name"] != "top"]
    load_descriptor(json.dumps(obj))
    # ranks 2 and 2, from sums of classes, pass
    make_descriptor(n=2, degrees=[0, 1, 1, 2, 2, 2, 2, 3, 3, 4],
                    sq=[{"k": 1, "from": "c1", "to": ["c3", "c4"]},
                        {"k": 1, "from": "c2", "to": ["c4"]},
                        {"k": 1, "from": "c5", "to": ["c7"]},
                        {"k": 1, "from": "c6", "to": ["c7", "c8"]}])


def test_cup_pairing_must_be_nondegenerate():
    # p3 without h cup h2: H^2 x H^4 -> H^6 is zero
    obj = json.loads(catalog_text("p3"))
    obj["cup"] = [e for e in obj["cup"] if (e["a"], e["b"]) != ("h", "h2")]
    with pytest.raises(InvalidDescriptor) as exc:
        load_descriptor(json.dumps(obj))
    assert [(e.check, e.details) for e in exc.value.report.failures] == [
        ("cup-pairing", "the cup pairing H^2 x H^4 -> H^6 has rank 0, not "
         "b_2 = 1; Poincare duality needs it nondegenerate")]
    # a middle-degree pairing of rank 1 on two classes is degenerate too:
    # a cup a = a cup b = b cup b = top, with Sq^2 a = Sq^2 b = top for the
    # square rule
    cup = [{"a": "c1", "b": "c1", "result": ["c3"]},
           {"a": "c1", "b": "c2", "result": ["c3"]},
           {"a": "c2", "b": "c2", "result": ["c3"]}]
    sq = [{"k": 2, "from": "c1", "to": ["c3"]},
          {"k": 2, "from": "c2", "to": ["c3"]}]
    with pytest.raises(InvalidDescriptor) as exc:
        make_descriptor(n=2, degrees=[0, 2, 2, 4], cup=cup, sq=sq)
    assert [e.check for e in exc.value.report.failures] == ["cup-pairing"]
    # with b cup b = 0 the pairing is unimodular and the input loads, and
    # without a cup table there is nothing to check
    make_descriptor(n=2, degrees=[0, 2, 2, 4], cup=cup[:2], sq=sq[:1])
    make_descriptor(n=2, degrees=[0, 2, 2, 4], sq=sq)


def two_class_text(n, cup=False):
    """The unit and the top class of a compact n-fold; with cup, also a and
    b in degree n with a cup b = top."""
    classes = [{"name": "1", "degree": 0}, {"name": "top", "degree": 2 * n}]
    if not cup:
        return json.dumps(descriptor_obj(n=n, classes=classes))
    classes[1:1] = [{"name": "a", "degree": n}, {"name": "b", "degree": n}]
    return json.dumps(descriptor_obj(
        n=n, classes=classes, cup=[{"a": "a", "b": "b", "result": ["top"]}]))


def test_duality_checks_do_not_walk_every_degree(monkeypatch):
    # the loader's eliminations follow the degrees that hold classes, not n
    pivots, calls = gf2.pivots, []

    def counted(rows):
        calls.append(1)
        return pivots(rows)

    monkeypatch.setattr(gf2, "pivots", counted)
    for cup in (False, True):
        counts = []
        for n in (10, 10 ** 6):
            calls.clear()
            load_descriptor(two_class_text(n, cup))
            counts.append(len(calls))
        assert counts[0] == counts[1], (cup, counts)


def test_catalog_and_benchmark_inputs_still_load():
    for name in catalog_names():
        load_descriptor(catalog_text(name))
    k3 = json.loads(catalog_text("k3"))
    en = json.loads(catalog_text("enriques_x"))
    p = [inputs.projective(n) for n in range(1, 7)]
    generated = p + [inputs.one_class(n) for n in (1, 5, 40)] + [
        inputs.product(p[0], p[0]), inputs.product(p[1], p[2]),
        inputs.product(p[3], p[3]), inputs.product(k3, p[0]),
        inputs.product(inputs.product(k3, p[0]), p[0]),
        inputs.product(en, p[0]), inputs.product(en, p[1]),
        inputs.product(en, en)]
    for obj in generated:
        load_descriptor(json.dumps(obj))
