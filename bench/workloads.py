"""The three workloads: their inputs, their operations and the answer checks.

An operation is one call into the program. Its check compares the output
with an independent answer (see oracle.py) and returns a description of
the problem, or None when the answer is right.

- deep: large n, small N; `hilb2 check` on P^8, P^10, P^12, one-class
  noncompact inputs with n = 40 and n = 60, and P^4 x P^4. Validation
  dominates here. Every rung is a call of at most about 0.15 s, so that a
  run holds many calls of each; the larger rungs (P^24, n = 120, and
  n = 500 at about two minutes a call) are left out.
- wide: large N, small n; `hilb2 check` on K3, K3 x P^1, K3 x P^2,
  K3 x P^1 x P^1 and K3 x (P^1)^3 (N = 24 to 192). The kernel layer and the
  degree-only tables weigh more than validation here. K3^2 (N = 576) and
  above are left out for the same reason as the large deep rungs.
- cli-mix: many small requests through `hilb2.cli.main(argv)` in process,
  accepted ones on every catalog entry and rejected ones on bad input.
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import inputs
import oracle

WORKLOADS = ("deep", "wide", "cli-mix")

# cli-mix operations that end in an uncaught exception at the seed, and why;
# each is expected to exit 1 and counts as failed until it does
KNOWN_FAILURES = {
    "reject deep-nesting": "JSON nested 200k deep raises RecursionError",
    "reject non-utf8": "a non-UTF-8 file raises UnicodeDecodeError",
}


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], "str | None"]


def build(workload: str, hilb2, seed: int, scratch: str) -> tuple[list, list]:
    """(descriptor dicts of the inputs, operations of one pass)."""
    if workload == "deep":
        ladder = [inputs.projective(8), inputs.projective(10),
                  inputs.projective(12), inputs.one_class(40), inputs.one_class(60),
                  inputs.product(inputs.projective(4), inputs.projective(4))]
    elif workload == "wide":
        k3 = json.loads(hilb2.catalog.catalog_text("k3"))
        p1 = inputs.projective(1)
        k3p1 = inputs.product(k3, p1)
        k3p1p1 = inputs.product(k3p1, p1)
        ladder = [k3, k3p1, inputs.product(k3, inputs.projective(2)), k3p1p1,
                  inputs.product(k3p1p1, p1)]
    elif workload == "cli-mix":
        ladder = [json.loads(hilb2.catalog.catalog_text(name))
                  for name in hilb2.catalog.catalog_names()]
        return ladder, _cli_ops(hilb2, ladder, seed, scratch)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ladder, [_check_op(hilb2, desc, seed) for desc in ladder]


def input_counts(ladder: list) -> dict:
    return {
        "input.classes": sum(len(d["classes"]) for d in ladder),
        "input.n": sum(d["complex_dimension"] for d in ladder),
        "input.sq_entries": sum(len(d.get("sq", [])) for d in ladder),
        "input.cup_entries": sum(len(d.get("cup", [])) for d in ladder),
    }


# -- deep and wide: the `hilb2 check` path --------------------------------

def _row_in(details: str) -> list:
    return json.loads(details[details.index("["):])


def _check_op(hilb2, desc: dict, seed: int) -> Op:
    text = json.dumps(desc)
    b, n = inputs.betti_row(desc), desc["complex_dimension"]
    expected = {"closed form": oracle.hilb2_closed(b, n)}
    if desc["name"] == f"p{n}":
        expected["P^n polynomial"] = oracle.hilb2_projective(n)
    spaces, verify = hilb2.spaces, hilb2.verify
    # each call samples with its own suite seed, drawn in a fixed sequence,
    # so that medians over many calls do not hang on one seed's samples
    suite_seeds = random.Random(f"{seed}:{desc['name']}")

    def call():
        return verify.run_suite(spaces.load_descriptor(text),
                                seed=suite_seeds.randrange(1 << 30))

    def check(report) -> "str | None":
        fails = [e.check for e in report.entries if e.status == "fail"]
        if fails:
            return f"run_suite reports FAIL in {fails}"
        statuses = report.statuses()
        if statuses.get("method-agreement") != "pass" or statuses.get("euler") != "pass":
            return f"unexpected statuses {statuses}"
        agree = next(e for e in report.entries if e.check == "method-agreement")
        row = _row_in(agree.details)
        for oracle_name, want in expected.items():
            if row != want:
                return f"row {row} but the {oracle_name} gives {want}"
        if oracle.euler(row) != oracle.euler_hilb2(b, n):
            return f"row {row} breaks the Euler identity"
        return None

    return Op(f"check {desc['name']}", call, check)


# -- cli-mix: many small requests -----------------------------------------

def _run_cli(main, argv: list):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _line(row) -> str:
    return " ".join(str(v) for v in row) + "\n"


def _expect(code: int, stdout=None, test=None, mentions=None):
    """Check of (exit code, stdout, stderr): the code, then an exact stdout,
    a predicate on stdout that returns a problem or None, or a phrase the
    output must mention."""
    def check(result) -> "str | None":
        got, out, err = result
        if got != code:
            return f"exit code {got}, expected {code}; stderr {err[-200:]!r}"
        if code == 1 and not err.startswith("error:"):
            return f"exit 1 without an error message: {err[-200:]!r}"
        if mentions and mentions not in out + err:
            return f"output does not mention {mentions!r}: {(out + err)[-200:]!r}"
        if stdout is not None and out != stdout:
            return f"stdout {out[-300:]!r}, expected {stdout[-300:]!r}"
        return test(out) if test else None
    return check


def _cli_ops(hilb2, ladder: list, seed: int, scratch: str) -> list:
    cli = hilb2.cli
    known = hilb2.verify.KNOWN_HILB2_ROWS

    def op(argv: list, check, label=None) -> Op:
        return Op(label or " ".join(argv), lambda: _run_cli(cli.main, argv), check)

    ops = []
    for desc in ladder:
        name, n = desc["name"], desc["complex_dimension"]
        b, sq1_zero = inputs.betti_row(desc), inputs.sq1_zero(desc)
        torsion_free = desc.get("integral", {}).get("torsion_free", False)

        def no_fail(out):
            return "validate reports [fail]" if "[fail]" in out else None

        def shows(out, b=b, sq1_zero=sq1_zero, n=n):
            want = {f"betti_x: {_line(b).strip()}", f"complex_dimension: {n}",
                    f"sq1_zero: {str(sq1_zero).lower()}"}
            missing = want - set(out.splitlines())
            return f"catalog show lacks {sorted(missing)}" if missing else None

        ops += [op(["validate", name], _expect(0, test=no_fail)),
                op(["catalog", "show", name], _expect(0, test=shows))]
        for space, row in (("x", b), ("exceptional", oracle.exceptional(b, n)),
                           ("sym2", oracle.sym2(b, n)),
                           ("config", oracle.config(b, n))):
            ops.append(op(["betti", name, "--space", space],
                          _expect(0, _line(row))))

        hilb = None
        if name in known:
            hilb = _line(known[name][0])
            ops.append(op(["betti", name, "--space", "hilb2"], _expect(0, hilb)))
        else:
            def euler_ok(out, b=b, n=n):
                row = [int(v) for v in out.split()]
                if oracle.euler(row) != oracle.euler_hilb2(b, n):
                    return f"row {row} breaks the Euler identity"
                return None
            ops.append(op(["betti", name, "--space", "hilb2"],
                          _expect(0, test=euler_ok)))
        both = ["betti", name, "--space", "hilb2", "--method", "both"]
        if sq1_zero:
            hilb = hilb or _line(oracle.hilb2_closed(b, n))
            ops.append(op(both, _expect(0, hilb * 2)))
        else:
            ops.append(op(both, _expect(2)))

        if sq1_zero:
            dims = oracle.kernel_sq1_zero(b, n)
            head = " ".join(f"{k}:{v}" for k, v in sorted(dims.items()))

            def kernel_ok(out, head=head, count=sum(dims.values())):
                lines = out.splitlines()
                if lines[0] != head:
                    return f"kernel dimensions {lines[0]!r}, expected {head!r}"
                if len(lines) - 1 != count:
                    return f"{len(lines) - 1} generators listed, expected {count}"
                return None
            ops.append(op(["kernel", name, "--generators"], _expect(0, test=kernel_ok)))
        else:
            ops.append(op(["kernel", name, "--generators"], _expect(0)))

        if torsion_free:
            groups = oracle.integral_sym2(b, n)
            text = "".join(
                f"{k}: " + " + ".join(([f"Z^{f}"] if f else [])
                                      + ([f"(Z/2)^{t}"] if t else [])) + "\n"
                for k, (f, t) in sorted(groups.items()))
            ops.append(op(["integral", name, "--space", "sym2"], _expect(0, text)))
        else:
            ops.append(op(["integral", name, "--space", "sym2"], _expect(2)))

        def suite_ok(out, name=name):
            statuses = {}
            for row in json.loads(out):
                statuses.setdefault(row["check"], set()).add(row["status"])
            if any("fail" in s for s in statuses.values()):
                return f"check reports FAIL: {statuses}"
            if statuses.get("euler") != {"pass"}:
                return "no passing euler check"
            if name in known and statuses.get("known-answer") != {"pass"}:
                return "known answer not matched"
            return None
        ops.append(op(["check", name, "--json", "--seed", str(seed)],
                      _expect(0, test=suite_ok)))

    return ops + _rejected_ops(op, scratch)


def _write(scratch: str, name: str, data) -> str:
    path = os.path.join(scratch, name)
    if isinstance(data, dict):
        data = json.dumps(data)
    with open(path, "wb") as fh:
        fh.write(data if isinstance(data, bytes) else data.encode("utf-8"))
    return path


def _rejected_ops(op, scratch: str) -> list:
    p3 = inputs.projective(3)
    unknown_key = dict(p3, colour="red")
    unknown_class = dict(p3, sq=p3["sq"] + [{"k": 2, "from": "nope", "to": []}])
    unstable = dict(p3, sq=p3["sq"] + [{"k": 4, "from": "h", "to": ["h3"]}])
    adem = {"name": "adem", "complex_dimension": 2, "compact": False,
            "classes": [{"name": "1", "degree": 0}, {"name": "t", "degree": 1},
                        {"name": "s", "degree": 2}, {"name": "w", "degree": 3}],
            "sq": [{"k": 1, "from": "t", "to": ["s"]},
                   {"k": 1, "from": "s", "to": ["w"]}]}
    lopsided = {"name": "lopsided", "complex_dimension": 2, "compact": True,
                "classes": [{"name": "1", "degree": 0}, {"name": "a", "degree": 1},
                            {"name": "top", "degree": 4}]}
    files = {
        "malformed": _write(scratch, "malformed.json", '{"name": "x", '),
        "unknown-key": _write(scratch, "unknown_key.json", unknown_key),
        "unknown-class": _write(scratch, "unknown_class.json", unknown_class),
        "instability": _write(scratch, "unstable.json", unstable),
        "adem": _write(scratch, "adem.json", adem),
        "not-palindromic": _write(scratch, "lopsided.json", lopsided),
        "deep-nesting": _write(scratch, "nested.json", "[" * 200_000),
        "non-utf8": _write(scratch, "latin1.json", b'{"name": "\xff"}'),
    }
    missing = os.path.join(scratch, "missing.json")
    # (label, argv, exit code, phrase the output must mention)
    cases = [
        ("malformed", ["betti", files["malformed"], "--space", "x"], 1, "invalid JSON"),
        ("unknown-key", ["validate", files["unknown-key"]], 1, "unknown key"),
        ("unknown-class", ["check", files["unknown-class"]], 1, "unknown class"),
        ("instability", ["validate", files["instability"]], 2, "[fail] instability"),
        ("adem", ["check", files["adem"]], 2, "[fail] adem"),
        ("not-palindromic", ["betti", files["not-palindromic"], "--space", "x"], 2,
         "not palindromic"),
        ("missing-file", ["kernel", missing], 1, "no file or catalog entry"),
        ("closed-on-sq1", ["betti", "enriques_x", "--space", "hilb2",
                           "--method", "closed"], 2, "Sq^1"),
        ("integral-with-torsion", ["integral", "elliptic_y", "--space", "sym2"], 2,
         "torsion_free"),
        ("deep-nesting", ["validate", files["deep-nesting"]], 1, None),
        ("non-utf8", ["validate", files["non-utf8"]], 1, None),
    ]
    return [op(argv, _expect(code, mentions=phrase), label=f"reject {what}")
            for what, argv, code, phrase in cases]
