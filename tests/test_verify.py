"""The consistency suite and its individual checks."""

from collections import Counter

import pytest

from conftest import make_descriptor
from hilb2 import (
    BettiTable,
    betti_hilb2_exact,
    catalog_get,
    catalog_names,
    catalog_text,
    check_duality,
    check_euler,
    cli,
    gf2,
    kernel,
    known_answers,
    load_descriptor,
    run_suite,
    steenrod,
)


def entry(rep, check):
    hits = [e for e in rep.entries if e.check == check]
    assert hits, f"no entry for {check}"
    return hits[-1]


def test_check_duality_pass_and_fail():
    assert check_duality(BettiTable("t", 4, {0: 1, 2: 3, 4: 1})).ok
    rep = check_duality(BettiTable("t", 4, {0: 1, 2: 3}))
    assert not rep.ok
    assert "degrees" in str(entry(rep, "duality").details)


def test_check_euler_pass_and_fail():
    d = catalog_get("p1")
    good = betti_hilb2_exact(d)
    assert check_euler(d, good).ok
    bad = BettiTable("hilb2", 4, {0: 2, 2: 1, 4: 1})
    assert not check_euler(d, bad).ok


def test_known_answers_pass_note_and_fail():
    d = catalog_get("k3")
    assert known_answers(d, betti_hilb2_exact(d)).ok
    doctored = BettiTable("hilb2", 8, {0: 1})
    assert not known_answers(d, doctored).ok
    unknown = make_descriptor(n=1, degrees=[0, 2])
    rep = known_answers(unknown, betti_hilb2_exact(unknown))
    assert rep.ok
    assert entry(rep, "known-answer").status == "note"


def test_enriques_note_quotes_both_rows():
    d = catalog_get("enriques_x")
    rep = known_answers(d, betti_hilb2_exact(d))
    assert rep.ok  # a note, not a failure
    details = entry(rep, "known-answer").details
    assert details["computed"] == [1, 1, 13, 13, 90, 13, 13, 1, 1]
    assert details["published"] == [1, 1, 13, 15, 94, 15, 13, 1, 1]


def test_run_suite_passes_on_catalog():
    for name in catalog_names():
        rep = run_suite(catalog_get(name))
        assert rep.ok, (name, [(e.check, e.details) for e in rep.failures])


def test_run_suite_statuses_k3():
    statuses = run_suite(catalog_get("k3")).statuses()
    assert statuses["validate"] == "pass"
    assert statuses["method-agreement"] == "pass"
    assert statuses["duality"] == "pass"
    assert statuses["euler"] == "pass"
    assert statuses["universal-coefficients"] == "pass"
    assert statuses["corollary"] == "pass"
    assert statuses["known-answer"] == "pass"


def test_run_suite_statuses_enriques():
    statuses = run_suite(catalog_get("enriques_x")).statuses()
    assert statuses["method-agreement"] == "note"
    assert statuses["corollary"] == "note"
    assert statuses["known-answer"] == "note"
    assert statuses["duality"] == "pass"
    assert statuses["euler"] == "pass"


def test_run_suite_is_deterministic():
    a = run_suite(catalog_get("p3"), seed=4, samples=64)
    b = run_suite(catalog_get("p3"), seed=4, samples=64)
    assert [(e.check, e.status, str(e.details)) for e in a.entries] == \
        [(e.check, e.status, str(e.details)) for e in b.entries]


def test_run_suite_reports_invalid_descriptors_and_stops():
    from hilb2 import parse_descriptor
    import json
    obj = {"name": "bad", "complex_dimension": 2, "compact": False,
           "classes": [{"name": "1", "degree": 0},
                       {"name": "u", "degree": 1},
                       {"name": "w", "degree": 4}],
           "sq": [{"k": 3, "from": "u", "to": ["w"]}]}
    d = parse_descriptor(json.dumps(obj))
    rep = run_suite(d)
    assert not rep.ok
    statuses = rep.statuses()
    assert statuses["validate"] == "fail"
    assert "euler" not in statuses  # downstream checks were not attempted


def test_run_suite_notes_on_noncompact_input():
    d = make_descriptor(n=2, degrees=[0, 1, 2, 3], compact=False)
    statuses = run_suite(d).statuses()
    assert statuses["duality"] == "note"


def test_run_suite_notes_redundant_kernel_degrees():
    d = make_descriptor(n=2, degrees=[0, 2, 2, 3], compact=False,
                        sq=[{"k": 1, "from": "c1", "to": ["c3"]},
                            {"k": 1, "from": "c2", "to": ["c3"]}])
    rep = run_suite(d)
    assert rep.ok
    assert entry(rep, "kernel-redundancy").status == "note"
    payload = entry(rep, "kernel-redundancy").details
    assert payload["degrees"] == {"3": {"generators": 2, "dimension": 1}}


@pytest.fixture
def stage_calls(monkeypatch):
    """Count the runs of validation, generator construction and span rank."""
    calls = Counter()
    for module, name in ((steenrod, "validate"),
                         (kernel, "_build_generators"),
                         (gf2, "span_dims_by_degree")):
        def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


ONCE = {"validate": 1, "_build_generators": 1, "span_dims_by_degree": 1}


def test_check_runs_each_stage_once(stage_calls, capsys):
    assert cli.main(["check", "k3"]) == 0
    assert stage_calls == ONCE


def test_suite_on_a_loaded_descriptor_runs_each_stage_once(stage_calls):
    assert run_suite(load_descriptor(catalog_text("enriques_x"))).ok
    assert stage_calls == ONCE
