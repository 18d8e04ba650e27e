"""Descriptor generators for the benchmark ladder.

Every generator returns a plain descriptor dict in the loader's JSON
format, so the program under test only ever sees generated JSON text.
"""

from __future__ import annotations

from math import comb


def projective(n: int) -> dict:
    """P^n with Sq^(2i) h^k = C(k, i) h^(k+i) and the full cup table."""
    names = ["1", "h"] + [f"h{k}" for k in range(2, n + 1)]
    sq = [{"k": 2 * i, "from": names[k], "to": [names[k + i]]}
          for k in range(1, n + 1) for i in range(1, k + 1)
          if k + i <= n and comb(k, i) % 2]
    cup = [{"a": names[i], "b": names[j], "result": [names[i + j]]}
           for i in range(1, n + 1) for j in range(i, n + 1) if i + j <= n]
    out = {
        "name": f"p{n}",
        "complex_dimension": n,
        "compact": True,
        "classes": [{"name": c, "degree": 2 * k} for k, c in enumerate(names)],
        "sq": sq,
        "integral": {"two_torsion_free": True, "torsion_free": True,
                     "even_degrees_only": True},
    }
    if cup:
        out["cup"] = cup
    return out


def one_class(n: int) -> dict:
    """A noncompact n-fold whose only class is the unit (the shape of C^n)."""
    return {
        "name": f"point{n}",
        "complex_dimension": n,
        "compact": False,
        "classes": [{"name": "1", "degree": 0}],
    }


def _factor(desc: dict):
    """Degrees, unit, Sq table and a product function for one factor."""
    degree = {c["name"]: c["degree"] for c in desc["classes"]}
    unit = next(c for c, d in degree.items() if d == 0)
    sq = {(e["k"], e["from"]): frozenset(e["to"]) for e in desc.get("sq", [])}
    table = None
    if "cup" in desc:
        table = {}
        for e in desc["cup"]:
            table[(e["a"], e["b"])] = table[(e["b"], e["a"])] = frozenset(e["result"])

    def square(k: int, x: str) -> frozenset:
        if k == 0:
            return frozenset({x})
        return sq.get((k, x), frozenset())

    def mult(x: str, y: str) -> frozenset:
        if x == unit:
            return frozenset({y})
        if y == unit:
            return frozenset({x})
        return table.get((x, y), frozenset())

    return degree, unit, square, mult, table is not None


def product(left: dict, right: dict) -> dict:
    """X x Y: Kunneth basis, Sq by the Cartan formula, and a cup table when
    both factors carry one. An integral flag holds only if it holds for both."""
    deg_l, unit_l, sq_l, mult_l, cup_l = _factor(left)
    deg_r, unit_r, sq_r, mult_r, cup_r = _factor(right)
    pairs = [(x, y) for x in deg_l for y in deg_r]
    unit = (unit_l, unit_r)

    def name(p):
        return "1" if p == unit else f"{p[0]}.{p[1]}"

    def degree(p):
        return deg_l[p[0]] + deg_r[p[1]]

    sq = []
    for x, y in pairs:
        for k in range(1, degree((x, y)) + 1):
            acc: set = set()
            for i in range(k + 1):
                for a in sq_l(i, x):
                    for b in sq_r(k - i, y):
                        acc ^= {(a, b)}
            if acc:
                sq.append({"k": k, "from": name((x, y)),
                           "to": [name(p) for p in pairs if p in acc]})
    out = {
        "name": f"{left['name']}x{right['name']}",
        "complex_dimension": left["complex_dimension"] + right["complex_dimension"],
        "compact": left["compact"] and right["compact"],
        "classes": [{"name": name(p), "degree": degree(p)} for p in pairs],
    }
    if sq:
        out["sq"] = sq
    if cup_l and cup_r:
        cup = []
        for i, p in enumerate(pairs):
            for q in pairs[i:]:
                if unit in (p, q):
                    continue
                acc = set()
                for a in mult_l(p[0], q[0]):
                    for b in mult_r(p[1], q[1]):
                        acc ^= {(a, b)}
                if acc:
                    cup.append({"a": name(p), "b": name(q),
                                "result": [name(r) for r in pairs if r in acc]})
        out["cup"] = cup
    flags_l, flags_r = left.get("integral", {}), right.get("integral", {})
    out["integral"] = {key: bool(flags_l.get(key) and flags_r.get(key))
                       for key in ("two_torsion_free", "torsion_free",
                                   "even_degrees_only")}
    return out


def betti_row(desc: dict) -> list[int]:
    """b_0 .. b_2n of X, counted from the descriptor's classes."""
    row = [0] * (2 * desc["complex_dimension"] + 1)
    for c in desc["classes"]:
        row[c["degree"]] += 1
    return row


def sq1_zero(desc: dict) -> bool:
    return not any(e["k"] == 1 and e["to"] for e in desc.get("sq", []))
