"""Betti tables of the symmetric square, configuration complement, and
Hilbert square, plus the integral profile of the symmetric square."""

import random
from itertools import combinations

import pytest

from conftest import make_descriptor, sphere
from hilb2 import (
    TorsionFlagRequired,
    betti_config,
    betti_exceptional,
    betti_hilb2_closed,
    betti_hilb2_exact,
    betti_of_x,
    betti_sym2_f2,
    catalog_get,
    catalog_names,
    integral_sym2,
    torsion_flags_hilb2,
)
from hilb2.betti import GroupProfile
from hilb2.steenrod import Sq1NotZero

HILB2_ROWS = {
    "p1": (1, 0, 1, 0, 1),
    "p2": (1, 0, 2, 0, 3, 0, 2, 0, 1),
    "p3": (1, 0, 2, 0, 4, 0, 4, 0, 4, 0, 2, 0, 1),
    "k3": (1, 0, 23, 0, 276, 0, 23, 0, 1),
    "enriques_x": (1, 1, 13, 13, 90, 13, 13, 1, 1),
    "elliptic_y": (1, 1, 13, 14, 92, 14, 13, 1, 1),
}


def test_config_rows():
    assert betti_config(catalog_get("enriques_x")).as_row() == \
        (1, 2, 14, 15, 81, 25, 13, 1)
    # p1: one pair in degree 2, diagonal ladders in degrees 0 and 1
    assert betti_config(catalog_get("p1")).as_row() == (1, 1, 1, 0)


def test_config_top_degree():
    for name in catalog_names():
        d = catalog_get(name)
        assert betti_config(d).top == 4 * d.n - 1


def test_sym2_rows():
    assert betti_sym2_f2(catalog_get("enriques_x")).as_row() == \
        (1, 1, 12, 13, 80, 14, 14, 2, 1)
    assert betti_sym2_f2(catalog_get("p2")).as_row() == \
        (1, 0, 1, 0, 2, 0, 2, 1, 1)


def test_integral_sym2_sphere_profiles():
    # one even cell: torsion ladder under the diagonal square
    got = integral_sym2(sphere(4, 2)).groups
    assert got == {0: (1, 0), 4: (1, 0), 6: (0, 1), 8: (1, 0)}
    # one odd cell: no diagonal Z, torsion at 2v - 1
    got = integral_sym2(sphere(3, 2)).groups
    assert got == {0: (1, 0), 3: (1, 0), 5: (0, 1)}
    # degree 2 is too low for any torsion
    got = integral_sym2(sphere(2, 1)).groups
    assert got == {0: (1, 0), 2: (1, 0), 4: (1, 0)}


def test_integral_sym2_needs_torsion_free_flag():
    with pytest.raises(TorsionFlagRequired):
        integral_sym2(sphere(4, 2, torsion_free=False))
    with pytest.raises(TorsionFlagRequired):
        integral_sym2(catalog_get("enriques_x"))


def test_group_profile_mod2_reduction():
    p = GroupProfile("sym2", 8, {0: (1, 0), 3: (1, 0), 5: (0, 1)})
    assert p.mod2_dims() == {0: 1, 3: 1, 5: 1, 6: 1}
    assert p.free_rank(3) == 1
    assert p.two_torsion(5) == 1
    assert p.two_torsion(4) == 0


def test_universal_coefficients_on_torsion_free_entries():
    for name in ("p1", "p2", "p3", "k3"):
        d = catalog_get(name)
        assert integral_sym2(d).mod2_dims() == betti_sym2_f2(d).dims, name


def test_hilb2_exact_rows():
    for name, row in HILB2_ROWS.items():
        assert betti_hilb2_exact(catalog_get(name)).as_row() == row, name


def test_hilb2_closed_rows_agree_when_bockstein_vanishes():
    for name in ("p1", "p2", "p3", "k3", "elliptic_y"):
        d = catalog_get(name)
        assert betti_hilb2_closed(d).as_row() == HILB2_ROWS[name], name


def test_hilb2_closed_gate_is_sq1_not_the_torsion_flag():
    with pytest.raises(Sq1NotZero):
        betti_hilb2_closed(catalog_get("enriques_x"))
    # elliptic_y carries integral torsion but Sq^1 = 0, so the form applies
    y = catalog_get("elliptic_y")
    assert not y.integral.two_torsion_free
    assert betti_hilb2_closed(y) == betti_hilb2_exact(y)


def test_methods_agree_on_random_square_free_fixtures():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randrange(1, 5)
        degrees = [0] + [rng.randrange(1, 2 * n) for _ in range(rng.randrange(8))]
        d = make_descriptor(n=n, degrees=degrees, compact=False)
        exact = betti_hilb2_exact(d)
        assert exact == betti_hilb2_closed(d), degrees
        assert exact.top == 4 * n


def test_methods_agree_including_a_top_degree_class():
    d = make_descriptor(n=2, degrees=[0, 1, 2, 3, 4])
    assert betti_hilb2_exact(d) == betti_hilb2_closed(d)


def test_adding_bockstein_never_raises_hilb2_dimensions():
    plain = make_descriptor(n=2, degrees=[0, 1, 2, 3, 4])
    twisted = make_descriptor(n=2, degrees=[0, 1, 2, 3, 4],
                              sq=[{"k": 1, "from": "c1", "to": ["c2"]}])
    a = betti_hilb2_exact(twisted)
    b = betti_hilb2_exact(plain)
    assert all(a.dim(k) <= b.dim(k) for k in range(4 * 2 + 1))
    # and the catalog pair with equal Betti numbers orders the same way
    ex = betti_hilb2_exact(catalog_get("enriques_x"))
    ey = betti_hilb2_exact(catalog_get("elliptic_y"))
    assert all(ex.dim(k) <= ey.dim(k) for k in range(9))


def test_euler_characteristics():
    for name, chi in [("p1", 3), ("p2", 9), ("p3", 18), ("k3", 324),
                      ("enriques_x", 90), ("elliptic_y", 90)]:
        assert betti_hilb2_exact(catalog_get(name)).euler() == chi, name


def test_torsion_flags_propagate():
    flags = torsion_flags_hilb2(catalog_get("p3"))
    assert (flags.no_2_torsion, flags.no_torsion, flags.torsion_free_even) == \
        (True, True, True)
    flags = torsion_flags_hilb2(catalog_get("enriques_x"))
    assert (flags.no_2_torsion, flags.no_torsion, flags.torsion_free_even) == \
        (False, False, False)
    flags = torsion_flags_hilb2(catalog_get("elliptic_y"))
    assert (flags.no_2_torsion, flags.no_torsion, flags.torsion_free_even) == \
        (False, False, False)


# Reference counts: enumerate basis classes and pairs one by one, with no
# use of the Betti-row counters in hilb2.spaces.

def _bump(dims, k, by=1):
    dims[k] = dims.get(k, 0) + by


def reference_tables(d):
    """Every degree-only table of d, counted class by class and pair by pair."""
    degs = [deg for _, deg in d.module.basis]
    n = d.n
    x, ex, sym2, config, closed, free, tors = {}, {}, {}, {}, {}, {}, {}
    for a, b in combinations(degs, 2):
        for table in (sym2, config, closed, free):
            _bump(table, a + b)
    for v in degs:
        _bump(x, v)
        for j in range(n):
            _bump(ex, v + 2 * j)
        if v == 0:
            _bump(sym2, 0)
        for k in range(v + 2, 2 * v + 1):
            _bump(sym2, k)
        for j in range(2 * n - v):
            _bump(config, 2 * v + j)
        if v % 2 == 0:
            _bump(closed, 2 * v)
            _bump(free, 2 * v)
        for p in range(1, n):
            _bump(closed, v + 2 * p)
        stop = 2 * v - 2 if v % 2 == 0 else 2 * v - 1
        for k in range(v + 2, stop + 1, 2):
            _bump(tors, k)
    groups = {k: (free.get(k, 0), tors.get(k, 0)) for k in set(free) | set(tors)}
    return {"x": x, "exceptional": ex, "sym2": sym2, "config": config,
            "closed": closed, "integral": groups}


def counted_tables(d):
    return {"x": betti_of_x(d).dims, "exceptional": betti_exceptional(d).dims,
            "sym2": betti_sym2_f2(d).dims, "config": betti_config(d).dims,
            "closed": betti_hilb2_closed(d).dims,
            "integral": integral_sym2(d).groups}


def random_row(rng, n, compact):
    """A Betti row with repeated and odd degrees; palindromic with one top
    class when compact, and empty in degree 2n otherwise."""
    row = [1] + [rng.randrange(4) for _ in range(2 * n - 1)] + [0]
    if compact:
        row[2 * n] = 1
        for k in range(n + 1, 2 * n):
            row[k] = row[2 * n - k]
    return row


def test_degree_only_tables_match_the_class_by_class_reference():
    rng = random.Random(23)
    flags = {"two_torsion_free": True, "torsion_free": True}
    seen_odd = seen_repeat = 0
    for trial in range(60):
        n = rng.randrange(1, 6)
        compact = trial % 2 == 0
        row = random_row(rng, n, compact)
        degrees = [k for k, b in enumerate(row) for _ in range(b)]
        rng.shuffle(degrees)  # declaration order must not matter
        d = make_descriptor(n=n, degrees=degrees, compact=compact,
                            integral=flags)
        assert counted_tables(d) == reference_tables(d), (n, compact, row)
        seen_odd += any(k % 2 for k in degrees)
        seen_repeat += len(set(degrees)) < len(degrees)
    assert seen_odd and seen_repeat
