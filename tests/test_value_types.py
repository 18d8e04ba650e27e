"""The value types are immutable records that compare and print by their
fields: BettiTable and GroupProfile keep only nonzero entries, BettiTable
checks its degrees, and a descriptor's shared-stage results are not a
field."""

import pytest

from hilb2 import (
    BettiTable,
    GroupProfile,
    IntegralFlags,
    betti_of_x,
    catalog_get,
    catalog_text,
    kernel_generators,
    load_descriptor,
    run_suite,
)
from hilb2.report import Entry, Report


def test_fields_are_read_only():
    d = catalog_get("p2")
    records = [(betti_of_x(d), "dims", {}), (d, "module", d.module),
               (d.module, "sq", {}), (d.integral, "torsion_free", False),
               (Entry("adem", "pass"), "status", "fail"),
               (kernel_generators(d)[0], "mask", 0),
               (GroupProfile("g", 2, {0: (1, 0)}), "groups", {})]
    for record, field, value in records:
        with pytest.raises(AttributeError):
            setattr(record, field, value)


def test_reprs_name_every_field():
    assert repr(IntegralFlags()) == ("IntegralFlags(two_torsion_free=False, "
                                     "torsion_free=False, even_degrees_only=False)")
    assert repr(betti_of_x(catalog_get("p2"))) == (
        "BettiTable(label='x', top=4, dims={0: 1, 2: 1, 4: 1}, noncompact=False)")
    assert repr(Entry("x", "fail", {"a": 1})) == (
        "Entry(check='x', status='fail', details={'a': 1})")
    assert repr(Report()) == "Report(entries=[])"


def test_equality_and_repr_ignore_the_shared_stage_results():
    text = catalog_text("p2")
    a, b = load_descriptor(text), load_descriptor(text)
    assert run_suite(a).ok
    assert len(a._memo) > len(b._memo)
    assert a == b and repr(a) == repr(b) and "_memo" not in repr(a)


def test_tables_drop_zeros():
    assert BettiTable("x", 4, {0: 1, 2: 0, 4: 1}).dims == {0: 1, 4: 1}
    assert GroupProfile("g", 4, {0: (1, 0), 1: (0, 0), 3: (0, 1)}).groups == {
        0: (1, 0), 3: (0, 1)}


def test_replace_keeps_the_table_checks():
    table = BettiTable("x", 4, {0: 1, 4: 1})
    assert table._replace(dims={0: 1, 2: 0}).dims == {0: 1}
    for dims in ({5: 1}, {-1: 1}, {2: -1}):
        with pytest.raises(ValueError):
            table._replace(dims=dims)
    profile = GroupProfile("g", 4, {0: (1, 0)})
    assert profile._replace(groups={0: (0, 0), 2: (1, 0)}).groups == {2: (1, 0)}


def test_a_replaced_descriptor_computes_its_stages_afresh():
    p2, p3 = catalog_get("p2"), catalog_get("p3")
    assert run_suite(p2).ok
    d = p2._replace(name="p3", n=3, module=p3.module)
    assert d == p3 and d._memo is not p2._memo
    assert run_suite(d).to_json() == run_suite(p3).to_json()
    assert betti_of_x(d).as_row() == (1, 0, 1, 0, 1, 0, 1)
