"""Independent answers, computed from a descriptor's Betti row alone.

The program counts pairs and ladder classes basis element by basis element;
these functions reach the same tables by polynomial arithmetic on the row
b_0, ..., b_2n, and the Hilbert square of P^n by its Gaussian-binomial
Poincare polynomial. A row is a list indexed by degree.
"""

from __future__ import annotations

from math import comb


def distinct_pairs(b: list) -> list:
    """Unordered pairs of distinct basis classes, by total degree:
    (P(t)^2 - P(t^2)) / 2."""
    row = [0] * (2 * len(b) - 1)
    for x, bx in enumerate(b):
        row[2 * x] += comb(bx, 2)
        for y in range(x + 1, len(b)):
            row[x + y] += bx * b[y]
    return row


def exceptional(b: list, n: int) -> list:
    """P(t) (1 + t^2 + ... + t^(2n-2))."""
    row = [0] * (4 * n - 1)
    for x, bx in enumerate(b):
        for j in range(n):
            row[x + 2 * j] += bx
    return row


def sym2(b: list, n: int) -> list:
    """Distinct pairs plus, per class of degree v > 0, one class in each
    degree v+2 .. 2v, and the point class for v = 0."""
    row = distinct_pairs(b)
    row[0] += b[0]
    for v in range(1, len(b)):
        for k in range(v + 2, 2 * v + 1):
            row[k] += b[v]
    return row


def config(b: list, n: int) -> list:
    """Distinct pairs plus the ladders t^(2v) (1 + t + ... + t^(2n-1-v))."""
    row = distinct_pairs(b)[:4 * n]
    for v, bv in enumerate(b):
        for j in range(2 * n - v):
            row[2 * v + j] += bv
    return row


def hilb2_closed(b: list, n: int) -> list:
    """The Sq^1 = 0 Hilbert-square row: pairs i <= j without the odd
    diagonal, plus t^v (t^2 + t^4 + ... + t^(2n-2)) per class."""
    row = distinct_pairs(b)
    for v, bv in enumerate(b):
        if v % 2 == 0:
            row[2 * v] += bv
        for p in range(1, n):
            row[v + 2 * p] += bv
    return row


def integral_sym2(b: list, n: int) -> dict:
    """degree -> (free rank, Z/2 count) for a torsion-free X."""
    free = distinct_pairs(b)
    tors = [0] * (4 * n + 1)
    for v, bv in enumerate(b):
        if v % 2 == 0:
            free[2 * v] += bv
        stop = 2 * v - 2 if v % 2 == 0 else 2 * v - 1
        for k in range(v + 2, stop + 1, 2):
            tors[k] += bv
    return {k: (free[k], tors[k]) for k in range(4 * n + 1) if free[k] or tors[k]}


def kernel_sq1_zero(b: list, n: int) -> dict:
    """Kernel dimensions when Sq^1 = 0: one generator e^j (e^a u + ...) per
    class u, in degree 2|u| + 2j (even |u|) or 2|u| - 1 + 2j (odd |u|),
    for 0 <= j <= n - 1 - floor(|u| / 2)."""
    dims: dict = {}
    for v, bv in enumerate(b):
        first = 2 * v if v % 2 == 0 else 2 * v - 1
        for j in range(n - v // 2):
            if bv:
                dims[first + 2 * j] = dims.get(first + 2 * j, 0) + bv
    return dims


def hilb2_projective(n: int) -> list:
    """Hilb^2(P^n) is a P^2-bundle over Gr(2, n+1):
    [n+1 choose 2]_(t^2) (1 + t^2 + t^4)."""
    # (1 - q^(n+1)) (1 - q^n) / ((1 - q) (1 - q^2)) in q = t^2; each
    # division by 1 - q^k is exact, c_i = a_i + c_(i-k)
    gauss = [0] * (2 * n + 2)
    for i, sign in ((0, 1), (n, -1), (n + 1, -1), (2 * n + 1, 1)):
        gauss[i] += sign
    for k in (1, 2):
        for i in range(k, len(gauss)):
            gauss[i] += gauss[i - k]
    gauss = gauss[:2 * n - 1]
    row = [0] * (4 * n + 1)
    for i, g in enumerate(gauss):
        for s in (0, 1, 2):
            row[2 * (i + s)] += g
    return row


def euler(row) -> int:
    return sum(v if k % 2 == 0 else -v for k, v in enumerate(row))


def euler_hilb2(b: list, n: int) -> int:
    """chi(X^[2]) = (chi^2 + chi) / 2 + (n - 1) chi."""
    chi = euler(b)
    return (chi * chi + chi) // 2 + (n - 1) * chi
