"""The consistency suite and its individual checks."""

import json
import os
import sys
from collections import Counter

import pytest

from conftest import make_descriptor
import hilb2
from hilb2 import (
    BettiTable,
    betti,
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
    spaces,
    steenrod,
)
from hilb2.report import FAIL, Report

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "bench"))
import workloads  # noqa: E402  (the benchmark's deep and wide input ladders)


def entry(rep, check):
    hits = [e for e in rep.entries if e.check == check]
    assert hits, f"no entry for {check}"
    return hits[-1]


def test_a_report_rejects_an_unknown_status():
    rep = Report()
    with pytest.raises(ValueError, match="unknown status 'ok'"):
        rep.add("duality", "ok")
    assert rep.entries == []


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


def test_method_agreement_failure_quotes_both_rows(monkeypatch):
    wrong = BettiTable("hilb2", 8, {0: 1, 8: 1})
    monkeypatch.setattr(betti, "betti_hilb2_closed", lambda d: wrong)
    e = entry(run_suite(catalog_get("p2")), "method-agreement")
    assert (e.status, e.details) == (FAIL, {
        "exact": [1, 0, 2, 0, 3, 0, 2, 0, 1],
        "closed": [1, 0, 0, 0, 0, 0, 0, 0, 1],
    })


def test_universal_coefficients_failure_quotes_both_rows(monkeypatch):
    wrong = BettiTable("sym2", 8, {0: 1})
    monkeypatch.setattr(betti, "betti_sym2_f2", lambda d: wrong)
    e = entry(run_suite(catalog_get("p2")), "universal-coefficients")
    assert (e.status, e.details) == (FAIL, {
        "from_integral": {0: 1, 2: 1, 4: 2, 6: 2, 7: 1, 8: 1},
        "mod2": {0: 1},
    })


def test_run_suite_ignores_its_seed(tmp_path):
    # the smallest deep and wide benchmark rungs, P^8 and K3, each loaded
    # afresh per seed so that no call reads another's cached kernel
    for workload in ("deep", "wide"):
        desc = workloads.build(workload, hilb2, 0, str(tmp_path))[0][0]
        reports = [run_suite(load_descriptor(json.dumps(desc)), seed=seed)
                   for seed in range(5)]
        assert reports[0].ok and "corollary" in reports[0].statuses()
        assert all(r.entries == reports[0].entries for r in reports), \
            desc["name"]


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
    """Count the runs of validation, generator construction, the per-degree
    echelon form of the generators and the pair count that four Betti
    tables share."""
    calls = Counter()
    for module, name in ((steenrod, "validate"),
                         (kernel, "_build_generators"),
                         (kernel, "_build_pools"),
                         (spaces, "_pair_counts")):
        def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


ONCE = {"validate": 1, "_build_generators": 1, "_build_pools": 1,
        "_pair_counts": 1}


def test_check_runs_each_stage_once(stage_calls, capsys):
    assert cli.main(["check", "k3"]) == 0
    assert stage_calls == ONCE


def test_suite_on_a_loaded_descriptor_runs_each_stage_once(stage_calls):
    assert run_suite(load_descriptor(catalog_text("enriques_x"))).ok
    assert stage_calls == ONCE


def test_check_reduces_each_kernel_degree_once(monkeypatch, capsys):
    # the rank, the redundancy note and the corollary share one echelon form
    # per kernel degree, which kernel._build_pools builds with gf2.pivots:
    # k3 has kernel degrees 0, 2 and 4
    callers = Counter()
    pivots = gf2.pivots

    def counted(rows):
        callers[sys._getframe(1).f_globals["__name__"]] += 1
        return pivots(rows)

    monkeypatch.setattr(gf2, "pivots", counted)
    assert cli.main(["check", "k3"]) == 0
    assert callers == {"hilb2.kernel": 3}
