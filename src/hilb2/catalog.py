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

Each entry is written once, at import, as text through the one writer of
descriptor text in spaces, not built here as a JSON object; catalog_get
parses that text through the ordinary loader, and exports reproduce these
bytes exactly. A name always means the built-in entry; another descriptor
is passed by its file path.
"""

from math import comb

from .spaces import (IntegralFlags, ManifoldDescriptor, _descriptor_text,
                     load_descriptor)


class UnknownCatalogName(KeyError):
    """Name without a built-in descriptor."""


def _projective(n: int) -> str:
    """The canonical text of P^n, named pn: h^k in degree 2k, the full cup
    table h^i h^j = h^(i+j), and Sq^(2i) h^k = C(k, i) h^(k+i). P^1 has no
    product of positive-degree classes and ships without a table."""
    h = ["1", "h"] + [f"h{k}" for k in range(2, n + 1)]
    squares = [(2 * i, h[k], [h[k + i]]) for k in range(1, n + 1)
               for i in range(1, n - k + 1) if comb(k, i) % 2]
    products = [(h[i], h[j], [h[i + j]])
                for i in range(1, n + 1) for j in range(i, n - i + 1)]
    basis = [(cls, 2 * k) for k, cls in enumerate(h)]
    return _descriptor_text(f"p{n}", n, True, basis, squares, products or None,
                            IntegralFlags(True, True, True))


def _surface(name: str, by_degree, squares=(), flags=IntegralFlags()) -> str:
    """The canonical text of a closed surface whose classes of degree k are
    by_degree[k], with these squares and no cup table."""
    basis = [(cls, deg) for deg, names in enumerate(by_degree)
             for cls in names]
    return _descriptor_text(name, 2, True, basis, squares, None, flags)


# name -> canonical JSON text, written once at import
_CATALOG: dict[str, str] = {
    "p1": _projective(1),
    "p2": _projective(2),
    "p3": _projective(3),
    "k3": _surface(
        "k3", (["1"], [], [f"a{i}" for i in range(1, 23)], [], ["top"]),
        flags=IntegralFlags(True, True, True)),
    "enriques_x": _surface(
        "enriques_x", (["1"], ["t"], ["t2"] + [f"x{i}" for i in range(1, 12)],
                       ["s"], ["top"]),
        [(1, "t", ["t2"]), (1, "x1", ["s"])]),
    "elliptic_y": _surface(
        "elliptic_y",
        (["1"], ["t"], [f"y{i}" for i in range(1, 13)], ["s"], ["top"])),
}


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
