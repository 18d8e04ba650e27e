"""Betti tables of the symmetric square, configuration complement, and
Hilbert square, plus the integral profile of the symmetric square."""

import json
import os
import random
import sys
from collections import Counter
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_descriptor, sphere
import hilb2
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
    descriptor_to_json,
    integral_sym2,
    load_descriptor,
)
from hilb2.betti import GroupProfile
from hilb2.catalog import _projective
from hilb2.spaces import BettiTable
from hilb2.steenrod import Sq1NotZero

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "bench"))
import workloads  # noqa: E402  (the benchmark ladders, built by bench/inputs.py)

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
    assert p.groups.get(3, (0, 0))[0] == 1
    assert p.groups.get(5, (0, 0))[1] == 1
    assert p.groups.get(4, (0, 0))[1] == 0


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


def test_projective_generator_gives_the_grassmannian_bundle_row():
    # Hilb^2(P^n) is a P^2-bundle over Gr(2, n+1), so its Poincare
    # polynomial is [n+1 choose 2]_(t^2) (1 + t^2 + t^4); the generator
    # writes canonical text for every n
    for n in range(1, 31):
        d = load_descriptor(_projective(n))
        assert descriptor_to_json(d) == _projective(n), n
        grassmannian = Counter(2 * (i + j - 1)
                               for i, j in combinations(range(n + 1), 2))
        row = tuple(sum(grassmannian[k - s] for s in (0, 2, 4))
                    for k in range(4 * n + 1))
        assert betti_hilb2_exact(d).as_row() == row, n
        assert betti_hilb2_closed(d).as_row() == row, n


def curve(g):
    """A closed curve of genus g: a_i cup b_i = [pt], every square zero."""
    classes = ([{"name": "1", "degree": 0}]
               + [{"name": f"{c}{i}", "degree": 1}
                  for i in range(g) for c in "ab"]
               + [{"name": "pt", "degree": 2}])
    cup = [{"a": f"a{i}", "b": f"b{i}", "result": ["pt"]} for i in range(g)]
    return make_descriptor(n=1, classes=classes, cup=cup, name=f"curve{g}")


def test_curve_hilbert_square_is_the_symmetric_square():
    # for a curve X^[2] = S^2 X, with Betti numbers (Macdonald, Topology 1,
    # 1962) 1, 2g, C(2g, 2) + 1, 2g, 1 and no torsion; the exact route runs
    # the family 2 ladders of the odd classes
    for g in range(8):
        d = curve(g)
        row = (1, 2 * g, comb(2 * g, 2) + 1, 2 * g, 1)
        assert betti_hilb2_exact(d).as_row() == row, g
        assert betti_hilb2_closed(d).as_row() == row, g
        assert betti_sym2_f2(d).as_row() == row, g


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
    # Sq^1 of rank 1 on both H^1 and H^2, as duality on a closed 4-manifold
    # asks
    plain = make_descriptor(n=2, degrees=[0, 1, 2, 2, 3, 4])
    twisted = make_descriptor(n=2, degrees=[0, 1, 2, 2, 3, 4],
                              sq=[{"k": 1, "from": "c1", "to": ["c2"]},
                                  {"k": 1, "from": "c3", "to": ["c4"]}])
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


BENCH_RUNGS = [desc for workload in ("deep", "wide")
               for desc in workloads.build(workload, hilb2, 0, None)[0]]


@pytest.mark.parametrize("desc", BENCH_RUNGS, ids=[d["name"] for d in BENCH_RUNGS])
def test_degree_only_tables_match_the_reference_on_the_bench_rungs(desc):
    # every rung is torsion-free; with the flags set, integral_sym2 applies
    flags = {"two_torsion_free": True, "torsion_free": True}
    d = load_descriptor(json.dumps({**desc, "integral": flags}))
    assert counted_tables(d) == reference_tables(d)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), top=st.integers(0, 40), mirrored=st.booleans())
def test_rows_and_reductions_match_their_per_degree_definitions(data, top,
                                                                mirrored):
    dims = data.draw(st.dictionaries(st.integers(0, top), st.integers(0, 3),
                                     max_size=8))
    if mirrored:  # a palindromic row, or one broken at a single degree
        dims.update({top - k: v for k, v in list(dims.items())})
        if data.draw(st.booleans()):
            k = data.draw(st.integers(0, top))
            dims[k] = dims.get(k, 0) + 1
    table = BettiTable("t", top, dims)
    assert table.as_row() == tuple(table.dim(k) for k in range(top + 1))
    assert table.is_palindromic() == all(
        table.dim(k) == table.dim(top - k) for k in range(top + 1))
    groups = data.draw(st.dictionaries(
        st.integers(-2, top + 2), st.tuples(st.integers(0, 2), st.integers(0, 2)),
        max_size=8))
    profile = GroupProfile("g", top, groups)
    get = profile.groups.get
    want = {k: v for k in range(top + 1)
            if (v := sum(get(k, (0, 0))) + get(k - 1, (0, 0))[1])}
    assert list(profile.mod2_dims().items()) == list(want.items())
