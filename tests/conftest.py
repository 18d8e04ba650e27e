"""Shared descriptor builders and reference helpers for the test suite."""

import contextlib
import io
import json

from hilb2 import cli, load_descriptor, parse_descriptor
from hilb2.gf2 import F2Vector


def descriptor_obj(n, degrees=None, classes=None, sq=None, cup=None,
                   integral=None, compact=True, name="fixture"):
    """Assemble a descriptor dict.

    Either pass explicit class dicts, or a list of degrees to get
    auto-named classes c0, c1, ... in that order.
    """
    if classes is None:
        classes = [{"name": "c%d" % i, "degree": k}
                   for i, k in enumerate(degrees)]
    obj = {
        "name": name,
        "complex_dimension": n,
        "compact": compact,
        "classes": classes,
    }
    if sq is not None:
        obj["sq"] = sq
    if cup is not None:
        obj["cup"] = cup
    if integral is not None:
        obj["integral"] = integral
    return obj


# A repeated top-level key and a repeated key in a class. json.loads alone
# keeps the last value: h would load in degree 4, with Betti row 1 0 0 0 1.
REPEATED_KEYS = {
    "name": '{"name": "x", "name": "y", "complex_dimension": 1, '
            '"compact": true, "classes": [{"name": "1", "degree": 0}]}',
    "degree": '{"name": "x", "complex_dimension": 2, "compact": true, '
              '"classes": [{"name": "1", "degree": 0}, '
              '{"name": "h", "degree": 2, "degree": 4}]}',
}


def make_descriptor(**kw):
    return load_descriptor(json.dumps(descriptor_obj(**kw)))


def parse_only(**kw):
    """Structurally parsed descriptor, axiom checks deliberately skipped."""
    return parse_descriptor(json.dumps(descriptor_obj(**kw)))


def run(argv):
    """[argv, exit code, stdout, stderr] of one cli.main call: one record
    entry of the golden CLI tests."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return [argv, code, out.getvalue(), err.getvalue()]


class OutOfRange(ValueError):
    """Multiplication by e would need the e^n reduction, which requires
    Chern class data a descriptor does not carry."""


def e_multiply(d, c):
    """Multiply a class on E by e, shifting every coefficient one power up,
    N bits of the layout. A nonzero top coefficient raises OutOfRange
    instead of guessing the e^n reduction."""
    width = len(d.module.basis)
    if c.mask >> (d.n - 1) * width:
        raise OutOfRange(
            f"e * (e^{d.n - 1} term) leaves the stored range; the e^{d.n} "
            "reduction is not available")
    return F2Vector(c.degree + 2, c.mask << width)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one line per acceptance criterion at the end of the run."""
    rows = []
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            if getattr(rep, "when", "call") != "call":
                continue
            name = rep.nodeid.rsplit("::", 1)[-1]
            if name.startswith("test_criterion_"):
                rows.append((name, rep.outcome))
    if not rows:
        return
    terminalreporter.section("acceptance criteria")
    for name, outcome in sorted(rows):
        terminalreporter.write_line(
            "%s: %s" % (name, "PASS" if outcome == "passed" else "FAIL"))


def sphere(k, n, torsion_free=True):
    """One class in degree 0 and one in degree k.

    Compact only when k = 2n, so the unique top class sits where duality
    expects it.
    """
    integral = None
    if torsion_free:
        integral = {"two_torsion_free": True, "torsion_free": True,
                    "even_degrees_only": k % 2 == 0}
    return make_descriptor(n=n, degrees=[0, k], compact=(k == 2 * n),
                           integral=integral, name="sphere%d" % k)
