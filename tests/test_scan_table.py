"""The table-driven permutation scan against the loop it replaced.

tropical._perm_argmin sums every permutation of a flat row-major int grid
off a scan table per size n up to 5 (written out for n = 4 and 5; larger
grids expand along row 0 down to 5 x 5 scans) and reads the minimum, its
multiplicity and its minimisers off those sums.  The value and the argmin list, order
included, must agree with the loop in tests/scan_reference.py, and so
must the minor tests that read their cells straight off an int grid: the
plain and principal uniqueness tests and membership's minor signs.
Every determinant path reaches the one scan, and an 8 x 8 scan leaves no
table behind.
"""

import random
import tracemalloc
from itertools import permutations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from scan_reference import ref_perm_argmin, subgrid
from troplift import membership, tropical
from troplift.monomials import plain_class, sym_exponent
from troplift.tropmat import TropMatrix


def scan(sub) -> tuple:
    """_perm_argmin on the flat cells of a square grid, as (value, argmin
    list), after checking its count against the list."""
    best, count, arg = tropical._perm_argmin([x for row in sub for x in row], len(sub))
    arg = list(arg)
    assert count == len(arg)
    return best, arg


@st.composite
def grids(draw, max_n=6):
    """Square int grids up to max_n; the narrow ranges tie often."""
    n = draw(st.integers(1, max_n))
    hi = draw(st.sampled_from([1, 3, 40]))
    lo = draw(st.sampled_from([0, -hi]))
    return [tuple(draw(st.integers(lo, hi)) for _ in range(n)) for _ in range(n)]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(grids())
def test_scan_matches_the_loop(sub):
    assert scan(sub) == ref_perm_argmin(sub)


def test_all_zero_7x7_keeps_every_permutation_in_order():
    best, arg = scan([(0,) * 7] * 7)
    assert best == 0
    assert arg == list(permutations(range(7)))


@pytest.mark.parametrize(
    "n, hi, seed", [(7, 2, 1), (7, 50, 2), (8, 1, 3), (8, 30, 4)], ids=str
)
def test_large_scans_match_the_loop(n, hi, seed):
    rng = random.Random(seed)
    sub = [tuple(rng.randint(0, hi) for _ in range(n)) for _ in range(n)]
    assert scan(sub) == ref_perm_argmin(sub)


@pytest.mark.parametrize("k", [4, 5])
def test_flat_minor_tests_match_the_loop(k):
    """The plain and principal uniqueness tests and the minor signs, on
    random rows and columns (in any order) of random grids up to 7 x 7."""
    rng = random.Random(k)
    for _ in range(120):
        d, n, hi = rng.randint(k, 7), rng.randint(k, 7), rng.choice([1, 2, 9])
        grid = tuple(tuple(rng.randint(0, hi) for _ in range(n)) for _ in range(d))
        rows, cols = rng.sample(range(d), k), rng.sample(range(n), k)
        _, arg = ref_perm_argmin(subgrid(grid, rows, cols))
        assert tropical._grid_nonsingular(grid, rows, cols) == (len(arg) == 1)
        signs = tuple(sorted({plain_class(sigma).sign for sigma in arg}))
        assert membership._argmin_signs(grid, rows, cols) == signs
        sym = tuple(tuple(grid[min(i, j) % d][max(i, j) % n] for j in range(d)) for i in range(d))
        _, arg = ref_perm_argmin(subgrid(sym, rows, rows))
        classes = {sym_exponent(sigma) for sigma in arg}
        assert tropical._grid_sym_nonsingular(sym, rows) == (len(classes) == 1)


def test_every_determinant_path_reaches_the_one_scan(monkeypatch):
    """trop_det, a 4 x 4 rank minor, a 4 x 4 principal minor and
    membership's minor signs all call tropical._perm_argmin, so a patch of
    that one name (as in the size-limit tests) covers every path."""
    sizes = []

    def no_scan(cells, n):
        sizes.append(n)
        raise LookupError("scan reached")

    monkeypatch.setattr(tropical, "_perm_argmin", no_scan)
    rng = random.Random(6)
    ent = [[0] * 5 for _ in range(5)]
    for i in range(5):
        for j in range(i, 5):
            ent[i][j] = ent[j][i] = rng.randint(0, 9)
    a = TropMatrix.make(ent, symmetric=True)
    _, grid = a.as_int_grid()
    paths = {
        "trop_det": lambda: tropical.trop_det(a),
        "rank minor": lambda: tropical._grid_nonsingular(grid, (0, 1, 2, 3), (1, 2, 3, 4)),
        "principal minor": lambda: tropical._grid_sym_nonsingular(grid, (0, 1, 3, 4)),
        "minor signs": lambda: membership._minor_signs(a, 2),
    }
    for name, path in paths.items():
        with pytest.raises(LookupError, match="scan reached"):
            path()
    assert sizes == [5, 4, 4, 4]


def test_tables_stop_at_5():
    """The 5 x 5 table is built once and kept; 6 x 6 to 8 x 8 scans build
    none."""
    assert tropical._scan_table(5) is tropical._scan_table(5)
    for n in (6, 7, 8):
        scan([(0,) * n] * n)
    assert max(tropical._TABLES) == 5


def test_an_8x8_determinant_retains_no_table():
    """An 8 x 8 scan expands along row 0 down to 5 x 5 scans: what the
    determinant leaves behind, its record entry and classes included, stays
    under 1 MB, where a kept 8 x 8 table would hold about 7 MB."""
    rng = random.Random(8)
    a = TropMatrix.make([[rng.randint(0, 99) for _ in range(8)] for _ in range(8)])
    a.as_int_grid()
    tropical._scan_table(5)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tropical.trop_det(a)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after - before < 1_000_000
