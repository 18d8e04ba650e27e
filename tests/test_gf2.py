"""GF(2) linear algebra: echelon form, ranks and spans of (degree, mask) rows."""

import itertools
import os
import random
import subprocess
import sys

import hilb2
from hilb2.gf2 import pivots, span_dims_by_degree


def brute_span(rows):
    """Every vector in the span, by full enumeration."""
    seen = set()
    for r in range(len(rows) + 1):
        for combo in itertools.combinations(rows, r):
            acc = 0
            for row in combo:
                acc ^= row
            seen.add(acc)
    return seen


def test_rank_of_explicit_rows():
    assert len(pivots((0b011, 0b110, 0b101))) == 2
    assert span_dims_by_degree([(1, 0b011), (1, 0b110), (1, 0b101)]) == {1: 2}


def test_rank_matches_enumerated_span_size():
    rng = random.Random(7)
    for _ in range(30):
        ncols = rng.randrange(1, 9)
        rows = tuple(rng.randrange(1 << ncols) for _ in range(rng.randrange(7)))
        assert (1 << len(pivots(rows))) == len(brute_span(rows))


def test_pivot_keys_are_the_leading_bits_of_the_span():
    rng = random.Random(11)
    for _ in range(200):
        ncols = rng.randrange(1, 8)
        rows = [rng.randrange(1 << ncols) for _ in range(rng.randrange(7))]
        echelon, span = pivots(rows), brute_span(rows)
        assert set(echelon) == {w.bit_length() for w in span if w}
        # each pivot lies in the span and leads at its key
        assert all(row in span and row.bit_length() == lead
                   for lead, row in echelon.items())


def test_span_dims_by_degree_skips_zero_and_dedups():
    a = (2, 0b01)
    b = (2, 0b10)
    z = (4, 0)
    assert span_dims_by_degree([a, a, b, z]) == {2: 2}


def test_span_dims_split_by_degree():
    rows = [(1, 0b1), (2, 0b01), (2, 0b11), (2, 0b10)]
    assert span_dims_by_degree(rows) == {1: 1, 2: 2}


def test_span_dims_invariant_under_permutation_and_row_sums():
    rng = random.Random(3)
    for _ in range(20):
        base = [(2, rng.randrange(1 << 6)) for _ in range(5)]
        dims = span_dims_by_degree(base)
        shuffled = base[:]
        rng.shuffle(shuffled)
        assert span_dims_by_degree(shuffled) == dims
        # replacing one row by its sum with another leaves the span alone
        if base[0][1] != base[1][1]:
            mixed = [(2, base[0][1] ^ base[1][1])] + base[1:]
            assert span_dims_by_degree(mixed) == dims


NEGATIVE_ROWS = """
from hilb2 import span_dims_by_degree
from hilb2.gf2 import pivots
for call in (lambda: pivots([-2, -3]),
             lambda: span_dims_by_degree([(0, -2), (0, -3)])):
    try:
        call()
    except ValueError as err:
        print(err)
"""


def test_a_negative_row_raises_instead_of_reducing_forever():
    # -3 ^ -2 == 3 and 3 ^ -2 == -3: reducing -3 against the pivot -2 would
    # cycle, so the calls run in a child process that a timeout can stop
    src = os.path.dirname(os.path.dirname(hilb2.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run([sys.executable, "-c", NEGATIVE_ROWS], env=env,
                          capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stderr) == (0, "")
    # the first row is already rejected, before any reduction
    assert proc.stdout.splitlines() == [
        "row -2 is negative, not a mask of set bits"] * 2
