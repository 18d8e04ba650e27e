"""Acceptance gate: one test per shipping criterion, one printed line each.

Each criterion prints `criterion NN <slug>: PASS|FAIL` on the real stdout so
the lines survive pytest's capture, then asserts. The module also runs
standalone: `python3 tests/test_acceptance.py`.
"""

import contextlib
import io
import json
import random
import sys

from conftest import sphere
from hilb2 import (
    betti_exceptional,
    betti_hilb2_closed,
    betti_hilb2_exact,
    betti_sym2_f2,
    boundary_no_b,
    boundary_with_b,
    catalog_get,
    catalog_names,
    catalog_text,
    corollary_check,
    descriptor_violations,
    hilb_restriction,
    integral_sym2,
    kernel_dimensions,
    kernel_generators,
    load_descriptor,
    parse_descriptor,
    run_suite,
)
from hilb2 import InvalidDescriptor
from hilb2 import cli
from hilb2.gf2 import span_dims_by_degree

Y_ROW = (1, 1, 13, 14, 92, 14, 13, 1, 1)
ENRIQUES_PUBLISHED = (1, 1, 13, 15, 94, 15, 13, 1, 1)
SQ1_ZERO_ENTRIES = ("p1", "p2", "p3", "k3", "elliptic_y")


def _announce(num, slug, ok):
    print("criterion %02d %s: %s" % (num, slug, "PASS" if ok else "FAIL"),
          file=sys.__stdout__, flush=True)


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    return code, out.getvalue()


def test_criterion_01_y_row_by_both_methods():
    d = catalog_get("elliptic_y")
    problems = []
    if betti_hilb2_exact(d).as_row() != Y_ROW:
        problems.append(("exact", betti_hilb2_exact(d).as_row()))
    if betti_hilb2_closed(d).as_row() != Y_ROW:
        problems.append(("closed", betti_hilb2_closed(d).as_row()))
    code, out = _cli(["betti", "elliptic_y", "--space", "hilb2",
                      "--method", "both"])
    want_line = " ".join(str(v) for v in Y_ROW)
    if code != 0 or out.strip().splitlines() != [want_line, want_line]:
        problems.append(("cli", code, out))
    _announce(1, "elliptic y row by both methods", not problems)
    assert not problems, problems


def test_criterion_02_enriques_handling():
    d = catalog_get("enriques_x")
    table = betti_hilb2_exact(d)
    problems = []
    if not table.is_palindromic():
        problems.append(("palindromic", table.as_row()))
    if table.euler() != 90:
        problems.append(("euler", table.euler()))
    diff = {k for k in range(9) if table.dim(k) != Y_ROW[k]}
    if diff != {3, 4, 5}:
        problems.append(("difference degrees", sorted(diff)))
    notes = [e for e in run_suite(d).entries
             if e.check == "known-answer" and e.status == "note"]
    if not notes:
        problems.append("missing discrepancy note")
    else:
        details = notes[0].details
        if details.get("computed") != list(table.as_row()) or \
                details.get("published") != list(ENRIQUES_PUBLISHED):
            problems.append(("note payload", details))
    _announce(2, "enriques discrepancy handling", not problems)
    assert not problems, problems


def test_criterion_03_known_manifold_rows():
    want = {
        "p1": (1, 0, 1, 0, 1),
        "p2": (1, 0, 2, 0, 3, 0, 2, 0, 1),
        "p3": (1, 0, 2, 0, 4, 0, 4, 0, 4, 0, 2, 0, 1),
        "k3": (1, 0, 23, 0, 276, 0, 23, 0, 1),
    }
    problems = []
    for name, row in want.items():
        got = betti_hilb2_exact(catalog_get(name)).as_row()
        if got != row:
            problems.append((name, got))
    code, out = _cli(["betti", "p2", "--space", "hilb2"])
    if code != 0 or out.strip() != "1 0 2 0 3 0 2 0 1":
        problems.append(("cli p2", code, out))
    _announce(3, "known manifold rows", not problems)
    assert not problems, problems


def test_criterion_04_method_agreement():
    problems = []
    for name in SQ1_ZERO_ENTRIES:
        d = catalog_get(name)
        exact = betti_hilb2_exact(d)
        closed = betti_hilb2_closed(d)
        bad = [k for k in range(4 * d.n + 1) if exact.dim(k) != closed.dim(k)]
        if bad:
            problems.append((name, bad))
    _announce(4, "exact and closed methods agree", not problems)
    assert not problems, problems


def test_criterion_05_kernel_dimensions():
    want = {
        "enriques_x": {0: 1, 1: 1, 2: 2, 3: 2, 4: 12, 5: 1},
        "elliptic_y": {0: 1, 1: 1, 2: 1, 3: 1, 4: 12, 5: 1},
        "p2": {0: 1, 2: 1, 4: 1},
    }
    problems = []
    for name, dims in want.items():
        got = kernel_dimensions(catalog_get(name))
        if got != dims:
            problems.append((name, got))
    for name in catalog_names():
        d = catalog_get(name)
        counts = {}
        rows = []
        for g in kernel_generators(d):
            if g.family <= 2 and not g.is_zero:
                counts[g.degree] = counts.get(g.degree, 0) + 1
                rows.append((g.degree, g.mask))
        if counts != span_dims_by_degree(rows):
            problems.append((name, "families 1-2 generators are dependent"))
    _announce(5, "kernel dimensions and generator bases", not problems)
    assert not problems, problems


def test_criterion_06_boundary_formulas():
    problems = []
    for name in catalog_names():
        d = catalog_get(name)
        one = d.module.basis_vector(d.module.unit())
        if boundary_no_b(d, one)[1]:
            problems.append((name, "nonzero boundary of the unit"))
        for cls, deg in d.module.basis:
            if deg % 2:
                continue
            u = d.module.basis_vector(cls)
            if boundary_with_b(d, u) != hilb_restriction(d, u):
                problems.append((name, cls))
    d = catalog_get("enriques_x")
    t2 = d.module.basis_vector("t2")
    if boundary_with_b(d, d.module.basis_vector("t")) != t2:
        problems.append("enriques bockstein ladder")
    _announce(6, "boundary ladder identities", not problems)
    assert not problems, problems


def test_criterion_07_integral_symmetric_squares():
    problems = []
    cases = [
        (sphere(4, 2), {0: (1, 0), 4: (1, 0), 6: (0, 1), 8: (1, 0)}),
        (sphere(3, 2), {0: (1, 0), 3: (1, 0), 5: (0, 1)}),
        (sphere(2, 1), {0: (1, 0), 2: (1, 0), 4: (1, 0)}),
    ]
    for d, want in cases:
        got = integral_sym2(d).groups
        if got != want:
            problems.append((d.name, got))
    for name in catalog_names():
        d = catalog_get(name)
        if not d.integral.torsion_free:
            continue
        if integral_sym2(d).mod2_dims() != betti_sym2_f2(d).dims:
            problems.append((name, "universal coefficients"))
    _announce(7, "integral symmetric squares", not problems)
    assert not problems, problems


def test_criterion_08_euler_identity():
    want = {"p1": 3, "p2": 9, "p3": 18, "k3": 324,
            "enriques_x": 90, "elliptic_y": 90}
    problems = []
    for name in catalog_names():
        d = catalog_get(name)
        chi_x = sum((-1) ** deg for _, deg in d.module.basis)
        identity = (chi_x * chi_x + chi_x) // 2 + (d.n - 1) * chi_x
        got = betti_hilb2_exact(d).euler()
        if got != identity or got != want[name]:
            problems.append((name, got, identity, want[name]))
    _announce(8, "euler characteristic identity", not problems)
    assert not problems, problems


def _drop_sq(obj, k, src):
    obj["sq"] = [e for e in obj.get("sq", [])
                 if not (e["k"] == k and e["from"] == src)]


def _set_sq(obj, k, src, to):
    _drop_sq(obj, k, src)
    obj["sq"].append({"k": k, "from": src, "to": to})


MUTANTS = [
    ("p2 drops Sq^2 h", "p2", "rejected",
     lambda obj: _drop_sq(obj, 2, "h")),
    ("p2 sends Sq^2 h to degree 2", "p2", "rejected",
     lambda obj: _set_sq(obj, 2, "h", ["h"])),
    ("enriques adds Sq^1 t2 = s", "enriques_x", "rejected",
     lambda obj: _set_sq(obj, 1, "t2", ["s"])),
    ("enriques adds Sq^2 t = s", "enriques_x", "rejected",
     lambda obj: _set_sq(obj, 2, "t", ["s"])),
    ("enriques drops Sq^1 t", "enriques_x", "rejected",
     lambda obj: _drop_sq(obj, 1, "t")),
    ("enriques drops Sq^1 x1", "enriques_x", "rejected",
     lambda obj: _drop_sq(obj, 1, "x1")),
    ("elliptic adds Sq^1 t = y1", "elliptic_y", "rejected",
     lambda obj: _set_sq(obj, 1, "t", ["y1"])),
    # a consistent descriptor under a wrong name: only the suite's
    # known-answer check can catch it
    ("p2 renamed to k3", "p2", "suite-failure",
     lambda obj: obj.update(name="k3")),
]


def test_criterion_09_axiom_suite_and_mutants():
    problems = []
    for name in catalog_names():
        rep = descriptor_violations(catalog_get(name))
        if not rep.ok:
            problems.append((name, "catalog entry fails validation"))
    for label, name, expected, transform in MUTANTS:
        obj = json.loads(catalog_text(name))
        transform(obj)
        text = json.dumps(obj)
        try:
            mutant = load_descriptor(text)
        except InvalidDescriptor:
            outcome = "rejected"
        else:
            outcome = "suite-failure" if not run_suite(mutant).ok else "missed"
        if outcome != expected:
            problems.append((label, outcome))
    _announce(9, "axiom suite rejects sq mutants", not problems)
    assert not problems, problems


def test_criterion_10_corollary_sampling():
    problems = []
    for name in ("p2", "p3", "k3"):
        rep = corollary_check(catalog_get(name))
        if not rep.ok:
            problems.append((name, [e.details for e in rep.failures]))
    _announce(10, "divisibility corollary sampling", not problems)
    assert not problems, problems


def test_criterion_11_sq2_perturbation_invariance():
    problems = []
    for name in ("p2", "k3", "enriques_x", "elliptic_y"):
        base = catalog_get(name)
        want_dims = kernel_dimensions(base)
        want_row = betti_hilb2_exact(base).as_row()
        h2 = [c for c, deg in base.module.basis if deg == 2]
        h4 = [c for c, deg in base.module.basis if deg == 4]
        for seed in range(10):
            rng = random.Random(seed)
            obj = json.loads(catalog_text(name))
            obj.setdefault("sq", [])
            for u in h2:
                _set_sq(obj, 2, u,
                        [t for t in h4 if rng.random() < 0.5])
            # the perturbed tables may break the product axioms, so only
            # the structural parse applies; the claim is formula-level
            d = parse_descriptor(json.dumps(obj))
            if kernel_dimensions(d) != want_dims:
                problems.append((name, seed, "kernel dimensions moved"))
            if betti_hilb2_exact(d).as_row() != want_row:
                problems.append((name, seed, "hilb2 row moved"))
    _announce(11, "sq2 perturbation invariance", not problems)
    assert not problems, problems


if __name__ == "__main__":
    failures = 0
    for fn_name, fn in sorted(globals().items()):
        if fn_name.startswith("test_criterion_"):
            try:
                fn()
            except AssertionError as exc:
                failures += 1
                print("  detail: %s" % (exc,), file=sys.__stdout__)
    sys.exit(1 if failures else 0)
