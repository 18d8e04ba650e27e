"""Built-in descriptors: p1, p2, p3, k3, enriques_x, elliptic_y.

The projective spaces carry their full cup tables and the squares
Sq^(2i) h^k = C(k, i) h^(k+i); up to P^3 the only nonzero one is
Sq^2 h = h^2. The K3 surface has an even intersection form, so Sq^2
vanishes on H^2 and no cup table is needed for any output of this package.

enriques_x is an Enriques surface. Its integral cohomology (Z/2 in H^2 and
H^3, free elsewhere) forces rank Sq^1 = 1, 1, 0 on H^1, H^2, H^3, which the
basis realizes in normal form: Sq^1 t = t2 (the cup square of the degree-1
class) and Sq^1 x1 = s, all other values zero. Sq^2 on H^2 is stored as
zero; the true action is cup product with the canonical class mod 2, but for
a surface (n = 2) no output of this package depends on Sq^2 on H^2, and the
test suite pins that invariance down. elliptic_y has the same mod-2 Betti
numbers with every square zero; its integral torsion is Z/4 rather than Z/2,
so it is not two-torsion-free.

Each descriptor is built as a JSON object and stored as its canonical text,
encoded once at import; catalog_get parses that text through the ordinary
loader, and exports reproduce these bytes exactly. A name always means the
built-in entry; another descriptor is passed by its file path.
"""

import json
from math import comb

from .spaces import IntegralFlags, ManifoldDescriptor, load_descriptor


class UnknownCatalogName(KeyError):
    """Name without a built-in descriptor."""


def _projective(name: str, n: int) -> dict:
    h = ["1"] + [f"h{i}" if i > 1 else "h" for i in range(1, n + 1)]
    deg = {cls: 2 * i for i, cls in enumerate(h)}
    cup = [{"a": h[i], "b": h[j], "result": [h[i + j]]}
           for i in range(1, n + 1) for j in range(i, n + 1) if i + j <= n]
    entry: dict = {
        "name": name,
        "complex_dimension": n,
        "compact": True,
        "classes": [{"name": cls, "degree": deg[cls]} for cls in h],
    }
    sq = [{"k": 2 * i, "from": h[k], "to": [h[k + i]]}
          for k in range(1, n + 1) for i in range(1, k + 1)
          if k + i <= n and comb(k, i) % 2]  # Sq^(2i) h^k = C(k, i) h^(k+i)
    if sq:
        entry["sq"] = sq
    if cup:
        entry["cup"] = cup
    entry["integral"] = IntegralFlags(True, True, True)._asdict()
    return entry


def _k3() -> dict:
    return {
        "name": "k3",
        "complex_dimension": 2,
        "compact": True,
        "classes": ([{"name": "1", "degree": 0}]
                    + [{"name": f"a{i}", "degree": 2} for i in range(1, 23)]
                    + [{"name": "top", "degree": 4}]),
        "integral": IntegralFlags(True, True, True)._asdict(),
    }


def _surface_with_torsion(name: str, names2: list[str],
                          sq1: list[dict] | None) -> dict:
    entry: dict = {
        "name": name,
        "complex_dimension": 2,
        "compact": True,
        "classes": ([{"name": "1", "degree": 0}, {"name": "t", "degree": 1}]
                    + [{"name": c, "degree": 2} for c in names2]
                    + [{"name": "s", "degree": 3}, {"name": "top", "degree": 4}]),
    }
    if sq1:
        entry["sq"] = sq1
    entry["integral"] = IntegralFlags()._asdict()
    return entry


# name -> canonical JSON text, encoded once at import
_CATALOG: dict[str, str] = {
    entry["name"]: json.dumps(entry, indent=2) + "\n" for entry in (
        _projective("p1", 1),
        _projective("p2", 2),
        _projective("p3", 3),
        _k3(),
        _surface_with_torsion(
            "enriques_x",
            ["t2"] + [f"x{i}" for i in range(1, 12)],
            [{"k": 1, "from": "t", "to": ["t2"]},
             {"k": 1, "from": "x1", "to": ["s"]}]),
        _surface_with_torsion(
            "elliptic_y", [f"y{i}" for i in range(1, 13)], None),
    )}


def catalog_names() -> tuple:
    return tuple(_CATALOG)


def catalog_text(name: str) -> str:
    """The canonical JSON text of a built-in catalog entry."""
    if name not in _CATALOG:
        raise UnknownCatalogName(name)
    return _CATALOG[name]


def catalog_get(name: str) -> ManifoldDescriptor:
    """Load a built-in space by name."""
    return load_descriptor(catalog_text(name))
