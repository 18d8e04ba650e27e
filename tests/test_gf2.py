"""GF(2) linear algebra: ranks, spans, and the vector type."""

import itertools
import random

import pytest

from hilb2.gf2 import F2Matrix, F2Vector, span_dims_by_degree


def vec(degree, *names):
    return F2Vector(degree, frozenset(names))


def brute_span_size(rows):
    """Number of distinct vectors in the span, by full enumeration."""
    seen = set()
    for r in range(len(rows) + 1):
        for combo in itertools.combinations(rows, r):
            acc = 0
            for row in combo:
                acc ^= row
            seen.add(acc)
    return len(seen)


def test_vector_addition_cancels():
    a = vec(2, "x", "y")
    b = vec(2, "y", "z")
    assert a + b == vec(2, "x", "z")
    assert a + a == vec(2)
    assert (a + a).is_zero()


def test_zero_vectors_compare_equal_across_degrees():
    assert vec(2) == vec(5)
    assert hash(vec(2)) == hash(vec(5))
    assert vec(2) != vec(2, "x")


def test_adding_zero_ignores_its_degree():
    a = vec(3, "u")
    assert a + vec(7) == a
    assert vec(7) + a == a


def test_mixed_nonzero_degrees_rejected():
    with pytest.raises(ValueError):
        vec(2, "x") + vec(3, "y")


def test_rank_of_explicit_rows():
    m = F2Matrix(columns=("a", "b", "c"), rows=(0b011, 0b110, 0b101))
    assert m.rank() == 2


def test_rank_matches_enumerated_span_size():
    rng = random.Random(7)
    for _ in range(30):
        ncols = rng.randrange(1, 9)
        rows = tuple(rng.randrange(1 << ncols) for _ in range(rng.randrange(7)))
        m = F2Matrix(columns=tuple(range(ncols)), rows=rows)
        assert (1 << m.rank()) == brute_span_size(rows)


def test_from_elements_orders_columns_by_key():
    elems = [vec(1, "b"), vec(1, "a", "b")]
    m = F2Matrix.from_elements(elems, column_key=lambda name: name)
    assert m.columns == ("a", "b")
    assert m.rank() == 2


def test_span_dims_by_degree_skips_zero_and_dedups():
    a = vec(2, "x")
    b = vec(2, "y")
    z = vec(4)
    assert span_dims_by_degree([a, a, b, z], column_key=lambda n: n) == {2: 2}


def test_span_dims_split_by_degree():
    elems = [vec(1, "t"), vec(2, "x"), vec(2, "x", "y"), vec(2, "y")]
    dims = span_dims_by_degree(elems, column_key=lambda n: n)
    assert dims == {1: 1, 2: 2}


def test_span_dims_invariant_under_permutation_and_row_sums():
    rng = random.Random(3)
    names = ["m%d" % i for i in range(6)]
    for _ in range(20):
        base = [vec(2, *[n for n in names if rng.random() < 0.5])
                for _ in range(5)]
        dims = span_dims_by_degree(base, column_key=names.index)
        shuffled = base[:]
        rng.shuffle(shuffled)
        assert span_dims_by_degree(shuffled, column_key=names.index) == dims
        # replacing one element by its sum with another leaves the span alone
        if len(base) >= 2 and not (base[0] + base[1]).is_zero():
            mixed = [base[0] + base[1]] + base[1:]
            assert span_dims_by_degree(mixed, column_key=names.index) == dims
