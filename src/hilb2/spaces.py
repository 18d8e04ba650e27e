"""Manifold descriptors: the JSON input format, its loader, and Betti tables.

A descriptor presents the mod-2 cohomology of a complex n-fold X:

    {
      "name": "p2",
      "complex_dimension": 2,
      "compact": true,
      "classes": [{"name": "1", "degree": 0}, {"name": "h", "degree": 2}, ...],
      "sq":  [{"k": 2, "from": "h", "to": ["h2"]}, ...],            (optional)
      "cup": [{"a": "h", "b": "h", "result": ["h2"]}, ...],         (optional)
      "integral": {"two_torsion_free": false, "torsion_free": false,
                   "even_degrees_only": false}                      (optional)
    }

Class names are nonempty ASCII and unique; degrees live in [0, 2n], and
below 2n when X is noncompact (H^2n of a connected noncompact manifold of
real dimension 2n vanishes). The sq list gives the nonzero values of Sq^k
on basis classes; an absent pair means zero. The cup list, if present, is
a complete symmetric product table over positive-degree classes (absent
pairs multiply to zero; products with the unique degree-0 class are
implicit). The integral flags describe the integral cohomology of X and
default to false. Unknown keys are rejected everywhere.

load_descriptor returns a fully validated descriptor or raises:
DescriptorError (with a location) for structural problems, InvalidDescriptor
(carrying the report) for axiom or invariant violations.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from . import steenrod
from .report import FAIL, Report
from .steenrod import UnstableModule


class DescriptorError(ValueError):
    """Malformed descriptor text; .location points into the JSON."""

    def __init__(self, message: str, location: str = ""):
        super().__init__(f"{location}: {message}" if location else message)
        self.location = location


class InvalidDescriptor(ValueError):
    """Well-formed descriptor that violates an axiom; .report has the details."""

    def __init__(self, report: Report):
        lines = "; ".join(f"{e.check}: {e.details}" for e in report.failures)
        super().__init__(lines or "invalid descriptor")
        self.report = report


@dataclass(frozen=True)
class IntegralFlags:
    two_torsion_free: bool = False
    torsion_free: bool = False
    even_degrees_only: bool = False


@dataclass(frozen=True)
class ManifoldDescriptor:
    name: str
    n: int  # complex dimension
    compact: bool
    module: UnstableModule
    integral: IntegralFlags
    # per-descriptor results of the shared stages; see once()
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)


def once(d: ManifoldDescriptor, key, compute: Callable):
    """compute(), run on the first call for this descriptor and key only.

    The stored value is shared by every later caller, so treat it as
    read-only.
    """
    if key not in d._memo:
        d._memo[key] = compute()
    return d._memo[key]


@dataclass(frozen=True)
class BettiTable:
    """Sparse row of mod-2 dimensions for one space, degrees 0..top."""

    label: str
    top: int
    dims: Mapping[int, int]
    noncompact: bool = False

    def __post_init__(self):
        clean = {}
        for k, v in self.dims.items():
            if not 0 <= k <= self.top:
                raise ValueError(f"degree {k} outside [0, {self.top}]")
            if v < 0:
                raise ValueError(f"negative dimension at degree {k}")
            if v:
                clean[k] = v
        object.__setattr__(self, "dims", clean)

    def dim(self, k: int) -> int:
        return self.dims.get(k, 0)

    def as_row(self) -> tuple:
        return tuple(self.dim(k) for k in range(self.top + 1))

    def euler(self) -> int:
        return sum(v if k % 2 == 0 else -v for k, v in self.dims.items())

    def is_palindromic(self) -> bool:
        return all(self.dim(k) == self.dim(self.top - k)
                   for k in range(self.top + 1))


def _expect_keys(obj: dict, required: dict, optional: dict, where: str) -> None:
    for key in obj:
        if key not in required and key not in optional:
            raise DescriptorError(f"unknown key {key!r}", where)
    for key in required:
        if key not in obj:
            raise DescriptorError(f"missing key {key!r}", where)
    for key, typ in {**required, **optional}.items():
        if key in obj and not isinstance(obj[key], typ):
            raise DescriptorError(
                f"{key!r} must be {typ.__name__}, got {type(obj[key]).__name__}",
                where)


def parse_descriptor(text: str | bytes) -> ManifoldDescriptor:
    """Structural parse: schema, references, duplicates. No axiom checks."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DescriptorError(f"invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise DescriptorError("top level must be an object")
    _expect_keys(raw,
                 {"name": str, "complex_dimension": int,
                  "compact": bool, "classes": list},
                 {"sq": list, "cup": list, "integral": dict}, "top level")
    # bool is an int subclass; reject it explicitly for the dimension
    if isinstance(raw["complex_dimension"], bool) or raw["complex_dimension"] < 1:
        raise DescriptorError("'complex_dimension' must be an integer >= 1",
                              "top level")
    if not raw["name"]:
        raise DescriptorError("'name' must be nonempty", "top level")
    n = raw["complex_dimension"]

    basis: list[tuple[str, int]] = []
    seen: set[str] = set()
    for i, cls in enumerate(raw["classes"]):
        where = f"classes[{i}]"
        if not isinstance(cls, dict):
            raise DescriptorError("class entries must be objects", where)
        _expect_keys(cls, {"name": str, "degree": int}, {}, where)
        name, degree = cls["name"], cls["degree"]
        if not name or not name.isascii():
            raise DescriptorError("class names must be nonempty ASCII", where)
        if name in seen:
            raise DescriptorError(f"duplicate class name {name!r}", where)
        if isinstance(degree, bool) or degree < 0:
            raise DescriptorError("degree must be an integer >= 0", where)
        seen.add(name)
        basis.append((name, degree))
    degree_of = dict(basis)

    sq: dict[int, dict[str, frozenset]] = {}
    sq_seen: set[tuple[int, str]] = set()
    for i, entry in enumerate(raw.get("sq", [])):
        where = f"sq[{i}]"
        if not isinstance(entry, dict):
            raise DescriptorError("sq entries must be objects", where)
        _expect_keys(entry, {"k": int, "from": str, "to": list}, {}, where)
        k, src, targets = entry["k"], entry["from"], entry["to"]
        if isinstance(k, bool) or k < 1:
            raise DescriptorError("'k' must be an integer >= 1", where)
        if src not in degree_of:
            raise DescriptorError(f"unknown class {src!r}", where)
        tset = set()
        for t in targets:
            if not isinstance(t, str) or t not in degree_of:
                raise DescriptorError(f"unknown class {t!r}", where)
            if t in tset:
                raise DescriptorError(f"repeated target {t!r}", where)
            tset.add(t)
        if (k, src) in sq_seen:
            raise DescriptorError(f"duplicate sq entry for k={k} from {src!r}",
                                  where)
        sq_seen.add((k, src))
        if tset:
            sq.setdefault(k, {})[src] = frozenset(tset)

    unit = next((name for name, deg in basis if deg == 0), None)
    index = {name: i for i, (name, _) in enumerate(basis)}
    cup: dict[tuple, frozenset] | None = None
    if "cup" in raw:
        cup = {}
        for i, entry in enumerate(raw["cup"]):
            where = f"cup[{i}]"
            if not isinstance(entry, dict):
                raise DescriptorError("cup entries must be objects", where)
            _expect_keys(entry, {"a": str, "b": str, "result": list}, {}, where)
            a, b = entry["a"], entry["b"]
            for name in (a, b):
                if name not in degree_of:
                    raise DescriptorError(f"unknown class {name!r}", where)
            if unit in (a, b):
                raise DescriptorError(
                    "products with the degree-0 class are implicit", where)
            rset = set()
            for t in entry["result"]:
                if not isinstance(t, str) or t not in degree_of:
                    raise DescriptorError(f"unknown class {t!r}", where)
                rset.add(t)
            key = (a, b) if index[a] <= index[b] else (b, a)
            if key in cup:
                raise DescriptorError(f"duplicate cup entry for {key}", where)
            cup[key] = frozenset(rset)

    flags = IntegralFlags()
    if "integral" in raw:
        where = "integral"
        _expect_keys(raw["integral"], {},
                     {"two_torsion_free": bool, "torsion_free": bool,
                      "even_degrees_only": bool}, where)
        flags = IntegralFlags(
            two_torsion_free=raw["integral"].get("two_torsion_free", False),
            torsion_free=raw["integral"].get("torsion_free", False),
            even_degrees_only=raw["integral"].get("even_degrees_only", False),
        )

    module = UnstableModule(tuple(basis), sq, cup, 2 * n)
    return ManifoldDescriptor(raw["name"], n, raw["compact"], module, flags)


def descriptor_violations(d: ManifoldDescriptor) -> Report:
    """Module axioms plus descriptor-level invariants, as one report.

    Computed once per descriptor; the returned report is shared.
    """
    return once(d, "violations", lambda: _violations(d))


def _violations(d: ManifoldDescriptor) -> Report:
    rep = steenrod.validate(d.module)
    units = d.module.classes_in_degree(0)
    if len(units) != 1:
        rep.add("connectedness", FAIL,
                f"expected exactly one degree-0 class, found {len(units)}")
    for name, deg in d.module.basis:
        if deg > 2 * d.n:
            rep.add("degree-range", FAIL,
                    f"class {name!r} has degree {deg} above 2n = {2 * d.n}")
        elif deg == 2 * d.n and not d.compact:
            rep.add("degree-range", FAIL,
                    f"class {name!r} has degree 2n = {deg}, but H^{deg} of a "
                    "connected noncompact manifold of real dimension "
                    f"{deg} vanishes")
    if d.compact:
        table = betti_of_x(d)
        if len(d.module.classes_in_degree(2 * d.n)) != 1:
            rep.add("compactness-symmetry", FAIL,
                    f"compact descriptor needs exactly one class in degree {2 * d.n}")
        if not table.is_palindromic():
            rep.add("compactness-symmetry", FAIL,
                    f"mod-2 Betti numbers {table.as_row()} are not palindromic")
    if d.integral.torsion_free and not d.integral.two_torsion_free:
        rep.add("torsion-flags", FAIL,
                "torsion_free requires two_torsion_free")
    return rep


def load_descriptor(text: str | bytes) -> ManifoldDescriptor:
    """Parse and fully validate a descriptor from JSON text."""
    d = parse_descriptor(text)
    rep = descriptor_violations(d)
    if not rep.ok:
        raise InvalidDescriptor(rep)
    return d


def descriptor_to_json(d: ManifoldDescriptor) -> str:
    """Canonical JSON text; loading it reproduces the descriptor exactly."""
    m = d.module
    out: dict = {
        "name": d.name,
        "complex_dimension": d.n,
        "compact": d.compact,
        "classes": [{"name": name, "degree": deg} for name, deg in m.basis],
    }
    sq_rows = [
        {"k": k, "from": src, "to": sorted(m.sq[k][src], key=m.index)}
        for k in sorted(m.sq)
        for src in sorted(m.sq[k], key=m.index)
        if m.sq[k][src]
    ]
    if sq_rows:
        out["sq"] = sq_rows
    if m.cup is not None:
        out["cup"] = [
            {"a": a, "b": b, "result": sorted(m.cup[(a, b)], key=m.index)}
            for a, b in sorted(m.cup, key=lambda p: (m.index(p[0]), m.index(p[1])))
        ]
    out["integral"] = {
        "two_torsion_free": d.integral.two_torsion_free,
        "torsion_free": d.integral.torsion_free,
        "even_degrees_only": d.integral.even_degrees_only,
    }
    return json.dumps(out, indent=2) + "\n"


def pair_counts(d: ManifoldDescriptor) -> Counter:
    """Unordered pairs of distinct basis classes of X by total degree: the
    coefficients of (P(t)^2 - P(t^2)) / 2 for P(t) = sum_k b_k t^k."""
    b = Counter(deg for _, deg in d.module.basis)
    twice = Counter()
    for x in b:
        for y in b:
            twice[x + y] += b[x] * b[y]
        twice[2 * x] -= b[x]
    return Counter({k: v // 2 for k, v in twice.items() if v})


def ladder_counts(d: ManifoldDescriptor,
                  ladder: Callable[[int], Iterable[int]]) -> Counter:
    """b_v classes in every degree of ladder(v), summed over the degrees v
    of the basis of X."""
    out = Counter()
    for v, b_v in Counter(deg for _, deg in d.module.basis).items():
        for k in ladder(v):
            out[k] += b_v
    return out


def betti_of_x(d: ManifoldDescriptor) -> BettiTable:
    """Mod-2 Betti numbers of X itself: one count per basis degree."""
    return BettiTable("x", 2 * d.n, ladder_counts(d, lambda v: (v,)),
                      noncompact=not d.compact)
