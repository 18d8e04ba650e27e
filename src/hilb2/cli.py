"""Command line front end.

Exit codes: 0 success, 1 input error (unreadable file, malformed descriptor,
unknown name, bad flags), 2 mathematical failure or axiom violation,
3 method disagreement in betti --method both.
"""

import argparse
import functools
import json
import sys

import hilb2  # reads betti, exdiv, kernel, verify; each loads on first use
from . import spaces
from .catalog import UnknownCatalogName, catalog_names, catalog_text
from .report import Report
from .spaces import DescriptorError, ManifoldDescriptor
from .steenrod import Sq1NotZero, is_sq1_zero


class _InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are input errors, not code 2
        raise _InputError(message)


def _read_source(arg: str) -> str | bytes:
    """A catalog entry's text by name, else the bytes of the file at arg."""
    if arg in catalog_names():
        return catalog_text(arg)
    try:
        with open(arg, "rb") as fh:
            return fh.read()
    except (FileNotFoundError, ValueError):  # ValueError: a NUL in the path
        raise _InputError(f"no file or catalog entry named {arg!r}") from None


def _load(arg: str) -> ManifoldDescriptor:
    return spaces.load_descriptor(_read_source(arg))


def _print_report(rep: Report, as_json: bool) -> None:
    if as_json:
        print(rep.to_json())
        return
    for e in rep.entries:
        details = e.details if isinstance(e.details, str) \
            else json.dumps(e.details, sort_keys=True)
        print(f"[{e.status}] {e.check}: {details}")


def _caveat(d: ManifoldDescriptor, fmt: str) -> None:
    if not d.compact:
        stream = sys.stdout if fmt == "table" else sys.stderr
        print("caveat: noncompact input; duality-based checks do not apply",
              file=stream)


def _table_json(t: spaces.BettiTable, method: str | None) -> dict:
    out = {"space": t.label, "top": t.top,
           "dims": {str(k): t.dims[k] for k in sorted(t.dims)},
           "noncompact": t.noncompact}
    if method:
        out["method"] = method
    return out


def _emit_table(t: spaces.BettiTable, fmt: str, method: str | None) -> None:
    if fmt == "table":
        print(" ".join(str(v) for v in t.as_row()))
    elif fmt == "json":
        print(json.dumps(_table_json(t, method), indent=2))
    else:
        print("degree,dimension")
        for k in range(t.top + 1):
            print(f"{k},{t.dim(k)}")


def cmd_validate(args) -> int:
    rep = spaces.descriptor_violations(_load(args.path))  # it loaded: notes only
    if not rep.entries:
        rep = Report()  # the violations report is shared; never extend it
        rep.add("validate", "pass", "no axiom or invariant violations")
    _print_report(rep, args.json)
    return 0


def cmd_betti(args) -> int:
    d = _load(args.path)
    if args.method and args.space != "hilb2":
        raise _InputError("--method only applies to --space hilb2")
    method = (args.method or "exact") if args.space == "hilb2" else None
    if method != "both":
        table = {  # --space hilb2 is keyed by its method
            "x": spaces.betti_of_x,
            "exceptional": hilb2.exdiv.betti_exceptional,
            "sym2": hilb2.betti.betti_sym2_f2,
            "config": hilb2.betti.betti_config,
            "exact": hilb2.betti.betti_hilb2_exact,
            "closed": hilb2.betti.betti_hilb2_closed,
        }[method or args.space](d)
        _caveat(d, args.format)
        _emit_table(table, args.format, method)
        return 0
    exact = hilb2.betti.betti_hilb2_exact(d)
    closed = hilb2.betti.betti_hilb2_closed(d)
    agree = exact == closed
    _caveat(d, args.format)
    if args.format == "json":
        print(json.dumps({"space": "hilb2", "method": "both", "agree": agree,
                          "exact": _table_json(exact, "exact"),
                          "closed": _table_json(closed, "closed")}, indent=2))
    elif not agree:
        for label, t in (("exact: ", exact), ("closed:", closed)):
            print(label, *t.as_row(), file=sys.stderr)
        print("methods disagree", file=sys.stderr)
    else:  # csv prints the exact table once, table prints both rows
        _emit_table(exact, args.format, None)
        if args.format == "table":
            _emit_table(closed, "table", None)
    return 0 if agree else 3


def cmd_kernel(args) -> int:
    d = _load(args.path)
    dims = hilb2.kernel.kernel_dimensions(d)
    if args.degree is not None:
        print(f"{args.degree}: {dims.get(args.degree, 0)}")
    else:
        print(" ".join(f"{k}:{v}" for k, v in sorted(dims.items())))
    if args.generators:
        for g in hilb2.kernel.kernel_generators(d):
            if args.degree is not None and g.degree != args.degree:
                continue
            print(f"degree {g.degree}: family {g.family}, u={g.source}, "
                  f"j={g.j}: {hilb2.exdiv.format_exclass(d, (g.degree, g.mask))}")
    return 0


def cmd_integral(args) -> int:
    d = _load(args.path)
    profile = hilb2.betti.integral_sym2(d)
    for k in sorted(profile.groups):
        free, tors = profile.groups[k]
        parts = []
        if free:
            parts.append(f"Z^{free}")
        if tors:
            parts.append(f"(Z/2)^{tors}")
        print(f"{k}: " + " + ".join(parts))
    return 0


def cmd_check(args) -> int:
    d = _load(args.path)
    rep = hilb2.verify.run_suite(d)
    _print_report(rep, args.json)
    return 0 if rep.ok else 2


def cmd_catalog(args) -> int:
    if args.action == "list":
        for name in catalog_names():
            print(name)
        return 0
    try:
        text = catalog_text(args.name)
    except UnknownCatalogName:
        raise _InputError(f"unknown catalog entry {args.name!r}") from None
    if args.action == "export":
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    # show
    d = spaces.load_descriptor(text)
    print(f"name: {d.name}")
    print(f"complex_dimension: {d.n}")
    print(f"compact: {str(d.compact).lower()}")
    print("betti_x:", *spaces.betti_of_x(d).as_row())
    print(f"sq1_zero: {str(is_sq1_zero(d.module)).lower()}")
    for flag, value in d.integral._asdict().items():
        print(f"{flag}: {str(value).lower()}")
    return 0


@functools.cache  # parsing never changes the tree; build it once per process
def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="hilb2", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="check a descriptor against the axioms")
    v.add_argument("path", help="descriptor file or catalog name")
    v.add_argument("--json", action="store_true", help="report as JSON")
    v.set_defaults(func=cmd_validate)

    b = sub.add_parser("betti", help="mod-2 Betti table of a derived space")
    b.add_argument("path")
    b.add_argument("--space", required=True,
                   choices=["x", "exceptional", "sym2", "config", "hilb2"])
    b.add_argument("--method", choices=["exact", "closed", "both"])
    b.add_argument("--format", default="table",
                   choices=["table", "json", "csv"])
    b.set_defaults(func=cmd_betti)

    k = sub.add_parser("kernel", help="kernel of the pushforward from E")
    k.add_argument("path")
    k.add_argument("--degree", type=int)
    k.add_argument("--generators", action="store_true",
                   help="list the nonzero generators")
    k.set_defaults(func=cmd_kernel)

    i = sub.add_parser("integral",
                       help="integral homology (torsion-free inputs)")
    i.add_argument("path")
    i.add_argument("--space", required=True, choices=["sym2"])
    i.set_defaults(func=cmd_integral)

    c = sub.add_parser("check", help="run the consistency suite")
    c.add_argument("path")
    c.add_argument("--seed", type=int, default=0,
                   help="ignored; the suite is deterministic")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_check)

    cat = sub.add_parser("catalog", help="built-in descriptors")
    cat_sub = cat.add_subparsers(dest="action", required=True)
    cat_sub.add_parser("list")
    show = cat_sub.add_parser("show")
    show.add_argument("name")
    exp = cat_sub.add_parser("export")
    exp.add_argument("name")
    exp.add_argument("-o", "--output")
    cat.set_defaults(func=cmd_catalog)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_InputError, OSError, DescriptorError) as exc:
        # OSError: an input that cannot be read, an -o that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        # a small valid input, such as a huge n with few classes, can outgrow memory
        print("error: out of memory: this input needs more memory than is "
              "available", file=sys.stderr)
        return 1
    except spaces.InvalidDescriptor as exc:  # raised only once args is bound
        _print_report(exc.report, vars(args).get("json", False)
                      or vars(args).get("format") == "json")
        return 2
    # evaluated only once an exception gets here, so betti loads only then
    except (Sq1NotZero, hilb2.betti.TorsionFlagRequired,
            hilb2.betti.NegativeRank) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
