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
implicit). A class appears at most once in a to or result list. The
integral keys are the fields of IntegralFlags, facts about H*(X; Z) that
default to false. Unknown and repeated keys are rejected everywhere.

parse_descriptor is the name edge on the way in. It maps each class name
to its index, class i being bit i of a mask, and stores the sq list as
class index -> {k: mask} (nonzero masks only) and the cup list as (i, j)
with i <= j -> mask; see steenrod.UnstableModule. The checks read classes,
the unit and top classes included, by index; only messages and exports
name the classes of a mask, in basis order.

_descriptor_text, the one writer of descriptor text (descriptor_to_json and
the catalog call it), is the name edge on the way out. Its canonical form:
the keys in the order above, "sq" only with a row and "cup" only with a
table, squares sorted by (k, index of the source class), products by their
pair of class indices, and json.dumps(..., indent=2) plus a newline.

load_descriptor returns a fully validated descriptor or raises:
DescriptorError (with a location) for structural problems, InvalidDescriptor
(carrying the report) for axiom or invariant violations.

ManifoldDescriptor, IntegralFlags and BettiTable are named tuples with
read-only fields. A BettiTable keeps only nonzero dimensions and rejects a
degree outside [0, top] or a negative dimension, on _replace as well.
"""

import json
from collections import namedtuple
from collections.abc import Callable, Iterable
from functools import cached_property
from itertools import repeat

from . import gf2, steenrod
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


IntegralFlags = namedtuple(
    "IntegralFlags", "two_torsion_free torsion_free even_degrees_only",
    defaults=(False, False, False))


class ManifoldDescriptor(namedtuple("ManifoldDescriptor",
                                    "name n compact module integral")):
    """A descriptor of X: its name, complex dimension n, compactness, the
    UnstableModule of H*(X; F_2) and its IntegralFlags."""

    @cached_property
    def _memo(self) -> dict:
        """Per-descriptor results of the shared stages; see once(). Held in
        the instance __dict__, so equality and repr ignore it and a
        descriptor made by _replace starts with an empty one."""
        return {}


def once(d: ManifoldDescriptor, key, compute: Callable):
    """compute(), run on the first call for this descriptor and key only.

    The stored value is shared by every later caller, so treat it as
    read-only.
    """
    if key not in d._memo:
        d._memo[key] = compute()
    return d._memo[key]


class BettiTable(namedtuple("BettiTable", "label top dims noncompact")):
    """Sparse row of mod-2 dimensions for one space, degrees 0..top."""

    __slots__ = ()

    def __new__(cls, label: str, top: int, dims, noncompact: bool = False):
        clean = {}
        for k, v in dims.items():
            if not 0 <= k <= top:
                raise ValueError(f"degree {k} outside [0, {top}]")
            if v < 0:
                raise ValueError(f"negative dimension at degree {k}")
            if v:
                clean[k] = v
        return super().__new__(cls, label, top, clean, noncompact)

    # _replace builds through _make: send it through the checks above
    _make = classmethod(lambda cls, values: cls(*values))

    def dim(self, k: int) -> int:
        return self.dims.get(k, 0)

    def as_row(self) -> tuple:
        return tuple(map(self.dims.get, range(self.top + 1), repeat(0)))

    def euler(self) -> int:
        return sum(v if k % 2 == 0 else -v for k, v in self.dims.items())

    def is_palindromic(self) -> bool:
        # sparse: top may be 2n for a huge n with a few classes
        get, top = self.dims.get, self.top
        return all(get(top - k) == v for k, v in self.dims.items())


def _expect_keys(obj, required: dict, optional: dict, where: str,
                 kind: str = "") -> None:
    if kind and not isinstance(obj, dict):
        raise DescriptorError(f"{kind} entries must be objects", where)
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


def _unique_keys(pairs: list) -> dict:
    """A JSON object; json.loads alone keeps the last value of a repeated key."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        twice = {k for k, _ in pairs if k in seen or seen.add(k)}
        key = next(k for k in obj if k in twice)
        raise DescriptorError(f"repeated key {key!r}")
    return obj


def parse_descriptor(text: str | bytes) -> ManifoldDescriptor:
    """Structural parse of JSON text or its UTF-8 bytes: schema, references,
    duplicates. No axiom checks."""
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except UnicodeDecodeError as exc:
        raise DescriptorError(f"the descriptor is not UTF-8 text: "
                              f"{exc.reason} at byte {exc.start}") from None
    except ValueError as exc:
        # a JSONDecodeError, a repeated key, or an integer literal past the
        # interpreter's limit on digits converted from a string
        raise DescriptorError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise DescriptorError("invalid JSON: nested too deeply") from None
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

    # An entry that is an object with exactly the expected keys, each of
    # exactly its JSON type (so no bool for an int), skips _expect_keys; its
    # location string is built only when an error is raised.
    basis: list[tuple[str, int]] = []
    index: dict[str, int] = {}  # class name -> its bit in a mask
    unit = None  # index of the first degree-0 class
    for i, cls in enumerate(raw["classes"]):
        if not (type(cls) is dict and len(cls) == 2
                and type(cls.get("name")) is str
                and type(cls.get("degree")) is int):
            _expect_keys(cls, {"name": str, "degree": int}, {},
                         f"classes[{i}]", "class")
        name, degree = cls["name"], cls["degree"]
        if not name or not name.isascii():
            raise DescriptorError("class names must be nonempty ASCII",
                                  f"classes[{i}]")
        if name in index:
            raise DescriptorError(f"duplicate class name {name!r}",
                                  f"classes[{i}]")
        if isinstance(degree, bool) or degree < 0:
            raise DescriptorError("degree must be an integer >= 0",
                                  f"classes[{i}]")
        if degree == 0 and unit is None:
            unit = len(basis)
        index[name] = len(basis)
        basis.append((name, degree))

    shared: dict[int, int] = {}  # equal stored masks are one int object

    def mask_of(names: list, role: str, kind: str, i: int) -> int:
        mask = 0
        for t in names:
            if not isinstance(t, str) or t not in index:
                raise DescriptorError(f"unknown class {t!r}", f"{kind}[{i}]")
            bit = 1 << index[t]
            if mask & bit:
                raise DescriptorError(f"repeated {role} {t!r}", f"{kind}[{i}]")
            mask |= bit
        return shared.setdefault(mask, mask)

    sq: dict[int, dict[int, int]] = {}
    sq_seen: set[tuple[int, str]] = set()
    for i, entry in enumerate(raw.get("sq", [])):
        if not (type(entry) is dict and len(entry) == 3
                and type(entry.get("k")) is int
                and type(entry.get("from")) is str
                and type(entry.get("to")) is list):
            _expect_keys(entry, {"k": int, "from": str, "to": list}, {},
                         f"sq[{i}]", "sq")
        k, src = entry["k"], entry["from"]
        if isinstance(k, bool) or k < 1:
            raise DescriptorError("'k' must be an integer >= 1", f"sq[{i}]")
        if src not in index:
            raise DescriptorError(f"unknown class {src!r}", f"sq[{i}]")
        mask = mask_of(entry["to"], "target", "sq", i)
        if (k, src) in sq_seen:
            raise DescriptorError(f"duplicate sq entry for k={k} from {src!r}",
                                  f"sq[{i}]")
        sq_seen.add((k, src))
        if mask:
            sq.setdefault(index[src], {})[k] = mask

    cup: dict[tuple, int] | None = {} if "cup" in raw else None
    for i, entry in enumerate(raw.get("cup", [])):
        if not (type(entry) is dict and len(entry) == 3
                and type(entry.get("a")) is str
                and type(entry.get("b")) is str
                and type(entry.get("result")) is list):
            _expect_keys(entry, {"a": str, "b": str, "result": list}, {},
                         f"cup[{i}]", "cup")
        a, b = entry["a"], entry["b"]
        for name in (a, b):
            if name not in index:
                raise DescriptorError(f"unknown class {name!r}", f"cup[{i}]")
        key = tuple(sorted((index[a], index[b])))
        if unit in key:
            raise DescriptorError(
                "products with the degree-0 class are implicit", f"cup[{i}]")
        mask = mask_of(entry["result"], "result", "cup", i)
        if key in cup:
            pair = tuple(basis[j][0] for j in key)
            raise DescriptorError(f"duplicate cup entry for {pair}",
                                  f"cup[{i}]")
        cup[key] = mask

    integral = raw.get("integral", {})
    _expect_keys(integral, {}, dict.fromkeys(IntegralFlags._fields, bool),
                 "integral")

    module = UnstableModule(tuple(basis), sq, cup, 2 * n)
    return ManifoldDescriptor(raw["name"], n, raw["compact"], module,
                              IntegralFlags(**integral))


def descriptor_violations(d: ManifoldDescriptor) -> Report:
    """Module axioms plus descriptor-level invariants, as one report.

    Computed once per descriptor; the returned report is shared.
    """
    return once(d, "violations", lambda: _violations(d))


def _violations(d: ManifoldDescriptor) -> Report:
    rep = steenrod.validate(d.module)
    m, top = d.module, 2 * d.n
    units, tops = m._degrees.get(0, ()), m._degrees.get(top, ())
    if len(units) != 1:
        rep.add("connectedness", FAIL,
                f"expected exactly one degree-0 class, found {len(units)}")
    for name, deg in m.basis:
        if deg > top:
            rep.add("degree-range", FAIL,
                    f"class {name!r} has degree {deg} above 2n = {top}")
        elif deg == top and not d.compact:
            rep.add("degree-range", FAIL,
                    f"class {name!r} has degree 2n = {deg}, but H^{deg} of a "
                    "connected noncompact manifold of real dimension "
                    f"{deg} vanishes")
    if d.compact:
        if len(tops) != 1:
            rep.add("compactness-symmetry", FAIL,
                    f"compact descriptor needs exactly one class in degree {top}")
        # the row of X has no place for a class above 2n
        table = betti_of_x(d) if max(m._degrees, default=0) <= top else None
        if table is not None and not table.is_palindromic():
            rep.add("compactness-symmetry", FAIL,
                    f"mod-2 Betti numbers {table.as_row()} are not palindromic")
        # Sq^1 into the top degree is the cup product with v_1 = w_1, which
        # vanishes on a closed complex manifold (it is orientable)
        for i in sorted(i for i, row in m.sq.items() if 1 in row):
            name, deg = m.basis[i]
            if deg == top - 1:
                rep.add("orientability", FAIL,
                        f"Sq^1 {name} is nonzero, but Sq^1 on H^{deg} is the "
                        "cup product with w_1, which vanishes on a closed "
                        "complex manifold")
        if table is not None:
            _check_sq1_self_adjoint(d, rep)
            # the pairing is read against the one unit and the one top class
            if (m.cup is not None and len(units) == len(tops) == 1
                    and table.is_palindromic()):
                _check_cup_pairing(d, units[0], tops[0], rep)
    flags = d.integral
    if flags.torsion_free and not flags.two_torsion_free:
        rep.add("torsion-flags", FAIL,
                "torsion_free requires two_torsion_free")
    # Sq^1 is the reduction of the integral Bockstein
    if flags.two_torsion_free and not steenrod.is_sq1_zero(m):
        rep.add("torsion-flags", FAIL,
                "two_torsion_free requires Sq^1 = 0, but Sq^1 is nonzero")
    if flags.torsion_free and flags.even_degrees_only:
        odd = [name for name, deg in m.basis if deg % 2]
        if odd:
            rep.add("torsion-flags", FAIL,
                    "torsion_free with even_degrees_only rules out classes of "
                    f"odd degree, but {len(odd)} are given, the first {odd[0]!r}")
    return rep


def _check_sq1_self_adjoint(d: ManifoldDescriptor, rep: Report) -> None:
    """On a closed manifold with w_1 = 0, Sq^1 on H^k and Sq^1 on H^(2n-k-1)
    are adjoint under the cup pairing, so their ranks agree (Milnor-Stasheff
    section 11). The pair k = 0 is left to instability and orientability.
    Only degrees with a stored Sq^1 row and their partners are compared."""
    m, top = d.module, 2 * d.n
    ranks = gf2.span_dims_by_degree(
        (m.basis[i][1], row[1]) for i, row in m.sq.items() if 1 in row)
    # of k and 2n - 1 - k, the smaller is below n
    for k in sorted({min(r, top - 1 - r) for r in ranks if 0 < r < top - 1}):
        low, high = ranks.get(k, 0), ranks.get(top - 1 - k, 0)
        if low != high:
            rep.add("sq1-self-adjoint", FAIL,
                    f"rank Sq^1 on H^{k} is {low} but on H^{top - 1 - k} it "
                    f"is {high}; on a closed orientable manifold they agree")


def _check_cup_pairing(d: ManifoldDescriptor, u: int, t: int,
                       rep: Report) -> None:
    """Poincare duality: each pairing H^k x H^(2n-k) -> H^2n is nondegenerate,
    so the rows of pairings of the classes of degree k have rank b_k. u and
    t index the unit and the top class; only cup entries into t are read."""
    m, top = d.module, 2 * d.n
    # class index -> mask of the classes it pairs to the top class with
    pairs = {u: 1 << t, t: 1 << u}
    for (i, j), mask in m.cup.items():
        if mask >> t & 1 and m.basis[i][1] + m.basis[j][1] == top:
            pairs[i] = pairs.get(i, 0) ^ 1 << j
            if i != j:
                pairs[j] = pairs.get(j, 0) ^ 1 << i
    # the pairing is symmetric, so degree 2n - k repeats the rank of degree k;
    # a degree without classes has no rows and b_k = 0
    ranks = gf2.span_dims_by_degree((deg, mask) for i, mask in pairs.items()
                                    if (deg := m.basis[i][1]) <= d.n)
    for k in sorted(k for k in m._degrees if k <= d.n):
        rank, b_k = ranks.get(k, 0), len(m._degrees[k])
        if rank != b_k:
            rep.add("cup-pairing", FAIL,
                    f"the cup pairing H^{k} x H^{top - k} -> H^{top} has rank "
                    f"{rank}, not b_{k} = {b_k}; Poincare duality "
                    "needs it nondegenerate")


def load_descriptor(text: str | bytes) -> ManifoldDescriptor:
    """Parse and fully validate a descriptor from JSON text or UTF-8 bytes."""
    d = parse_descriptor(text)
    rep = descriptor_violations(d)
    if not rep.ok:
        raise InvalidDescriptor(rep)
    return d


def descriptor_to_json(d: ManifoldDescriptor) -> str:
    """Canonical JSON text; loading it reproduces the descriptor exactly."""
    m = d.module
    squares = [(k, m.basis[i][0], m.names(mask))
               for i, row in m.sq.items() for k, mask in row.items()]
    products = None if m.cup is None else [
        (m.basis[i][0], m.basis[j][0], m.names(mask))
        for (i, j), mask in m.cup.items()]
    return _descriptor_text(d.name, d.n, d.compact, m.basis, squares, products,
                            d.integral)


def _descriptor_text(name: str, n: int, compact: bool, basis, squares,
                     products, integral: IntegralFlags) -> str:
    """The one writer of canonical descriptor text, in the canonical form
    of the module docstring. Squares are (k, source, targets) rows and
    products (a, b, result) rows, or None for no table, by class name."""
    index = {cls: i for i, (cls, _) in enumerate(basis)}
    out: dict = {
        "name": name,
        "complex_dimension": n,
        "compact": compact,
        "classes": [{"name": cls, "degree": deg} for cls, deg in basis],
    }
    if squares:
        out["sq"] = [{"k": k, "from": src, "to": to} for k, src, to in
                     sorted(squares, key=lambda row: (row[0], index[row[1]]))]
    if products is not None:
        out["cup"] = [{"a": a, "b": b, "result": result} for a, b, result in
                      sorted(products,
                             key=lambda row: (index[row[0]], index[row[1]]))]
    out["integral"] = integral._asdict()
    return json.dumps(out, indent=2) + "\n"


def pair_counts(d: ManifoldDescriptor) -> dict[int, int]:
    """Unordered pairs of distinct basis classes of X by total degree, the
    coefficients of (P(t)^2 - P(t^2)) / 2 for P(t) = sum_k b_k t^k; counted
    once per descriptor, and the returned dict is shared."""
    return once(d, "pair_counts", lambda: _pair_counts(d.module._degrees))


def _pair_counts(degrees: dict[int, list[int]]) -> dict[int, int]:
    twice = {}
    get = twice.get
    for x, xs in degrees.items():
        for y, ys in degrees.items():
            twice[x + y] = get(x + y, 0) + len(xs) * len(ys)
        twice[2 * x] -= len(xs)
    return {k: v // 2 for k, v in twice.items() if v}


def ladder_counts(d: ManifoldDescriptor,
                  ladder: Callable[[int], Iterable[int]],
                  base: dict[int, int] | None = None) -> dict[int, int]:
    """base, if given, plus b_v classes in every degree of ladder(v), summed
    over the degrees v of the basis of X; base is copied, never changed."""
    out = dict(base or {})
    get = out.get
    for v, idx in d.module._degrees.items():
        for k in ladder(v):
            out[k] = get(k, 0) + len(idx)
    return out


def betti_of_x(d: ManifoldDescriptor) -> BettiTable:
    """Mod-2 Betti numbers of X itself: the sizes of the basis degrees."""
    dims = {deg: len(idx) for deg, idx in d.module._degrees.items()}
    return BettiTable("x", 2 * d.n, dims, noncompact=not d.compact)
