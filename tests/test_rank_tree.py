"""Rank <= 2 read off the rank-2 tree, and the symmetric rank started from
the plain rank, against the full scans they replace (tests/rank_reference.py).

trop_rank tests the 3 x 3 minors on rows 0, 1 and 2, and when all of them
are singular asks trees._rank2_tree, which returns the tree of a rank <= 2
matrix and None above rank 2.  sym_trop_rank reads trop_rank and tests only
principal minors above it.  Both must give the reference's rank, or raise
its SizeLimit with the same text, at every bound from 1 to 8, on min-plus
products through one and two inner dimensions, mirror products, the
`samples` tree matrices and generic small-entry draws, with entries
rescaled by halves and thirds.
"""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import samples
from conftest import entries
from rank_reference import ref_sym_trop_rank, ref_trop_rank
from troplift import trees, tropical
from troplift.errors import RankTooHigh, SizeLimit
from troplift.tropical import sym_trop_rank, trop_rank
from troplift.tropmat import TropMatrix

SETTINGS = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
DENOMINATORS = st.sampled_from([1, 2, 3])


def _grid(d, n, lo=-4, hi=4):
    row = st.lists(st.integers(lo, hi), min_size=n, max_size=n)
    return st.lists(row, min_size=d, max_size=d)


def _min_plus(b, c):
    return [[min(x + y for x, y in zip(row, col)) for col in zip(*c)] for row in b]


def _scaled(rows, den, symmetric=False):
    return TropMatrix.make([[Fraction(x, den) for x in row] for row in rows], symmetric)


@st.composite
def products(draw):
    """B ⊙ C through one or two inner dimensions: tropical rank <= 2."""
    d, n, k = draw(st.integers(1, 8)), draw(st.integers(1, 8)), draw(st.integers(1, 2))
    return _scaled(_min_plus(draw(_grid(d, k)), draw(_grid(k, n))), draw(DENOMINATORS))


@st.composite
def mirror_products(draw):
    """M ⊙ M^T, flagged symmetric, through one to three inner dimensions."""
    n, k = draw(st.integers(1, 8)), draw(st.integers(1, 3))
    m = draw(_grid(n, k))
    return _scaled(_min_plus(m, list(zip(*m))), draw(DENOMINATORS), symmetric=True)


@st.composite
def tree_matrices(draw):
    """The samples' bicolored and symbic tree matrices, rescaled."""
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        a = samples.random_sym_rank2_matrix(rng, draw(st.integers(2, 8)))
    else:
        a = samples.random_rank2_matrix(rng, draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    den = draw(DENOMINATORS)
    return TropMatrix(tuple(tuple(x / den for x in row) for row in a.entries), a.symmetric)


@st.composite
def generic(draw):
    """Small-entry draws, ties frequent; a square one may be symmetric."""
    d, n, hi = draw(st.integers(1, 8)), draw(st.integers(1, 8)), draw(st.integers(1, 3))
    rows = draw(_grid(d, n, 0, hi))
    symmetric = d == n and draw(st.booleans())
    if symmetric:
        rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    return _scaled(rows, draw(DENOMINATORS), symmetric)


def _outcome(rank, a, bound):
    try:
        return rank(a, bound)
    except SizeLimit as exc:
        return f"SizeLimit: {exc}"


def _agrees_with_the_full_scans(a):
    want = ref_trop_rank(a)
    assert (trees._rank2_tree(a) is None) == (want > 2)
    for bound in range(1, 9):
        assert _outcome(trop_rank, a, bound) == _outcome(ref_trop_rank, a, bound), bound
        if a.symmetric:
            assert _outcome(sym_trop_rank, a, bound) == _outcome(ref_sym_trop_rank, a, bound), bound


@SETTINGS
@given(products())
def test_products_agree_with_the_full_scans(a):
    _agrees_with_the_full_scans(a)


@SETTINGS
@given(mirror_products())
def test_mirror_products_agree_with_the_full_scans(a):
    _agrees_with_the_full_scans(a)


@SETTINGS
@given(tree_matrices())
def test_tree_matrices_agree_with_the_full_scans(a):
    assert trees._rank2_tree(a) is not None
    _agrees_with_the_full_scans(a)


@SETTINGS
@given(generic())
def test_generic_draws_agree_with_the_full_scans(a):
    _agrees_with_the_full_scans(a)


# (rows, symmetric, plain rank, symmetric rank or None).  A plain rank 1
# matrix is an outer sum, and a symmetric one an outer square, so its
# symmetric rank is 1 too; the symmetric rank exceeds the plain one only
# from plain rank 2 on.
CASES = {
    "square_3x3": ([[0, 1, 1], [1, 0, 1], [1, 1, 0]], True, 3, 3),
    "square_3x3_rank2": ([[0, 0, 0], [0, 2, 1], [0, 1, 2]], True, 2, 3),
    "wide_3x5": ([[0, 1, 2, 3, 3], [1, 2, 3, 2, 1], [3, 3, 2, 1, 0]], False, 2, None),
    "wide_3x5_rank3": ([[0, 1, 2, 3, 4], [1, 0, 1, 2, 3], [2, 1, 0, 1, 5]], False, 3, None),
    "outer_square": ([[0, 1, 2], [1, 2, 3], [2, 3, 4]], True, 1, 1),
    "plain_2_symmetric_3": ([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 2, 1], [0, 0, 1, 2]], True, 2, 3),
    "plain_3_symmetric_4": ([[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 2, 1], [0, 1, 1, 2]], True, 3, 4),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_named_cases(name):
    rows, symmetric, plain, sym = CASES[name]
    a = TropMatrix.make(rows, symmetric)
    assert trop_rank(a, 8) == plain
    if symmetric:
        assert sym_trop_rank(a, 8) == sym
    _agrees_with_the_full_scans(a)


def test_a_nonsingular_symmetric_9x9_keeps_the_class_cap_refusal():
    """A symmetric 9 x 9 of plain rank 9 at bound 9: the full symmetric
    scan reached the full-size minor and sym_trop_det refused it, so the
    symmetric rank, which starts from that plain rank, still refuses."""
    a = TropMatrix.make([[0 if i == j else 1 for j in range(9)] for i in range(9)], True)
    assert trop_rank(a, 9) == 9
    for rank in (sym_trop_rank, ref_sym_trop_rank):
        with pytest.raises(SizeLimit, match="monomial enumeration capped at n = 8"):
            rank(a, 9)


def test_a_3_row_matrix_is_scanned_without_the_tree():
    """On three rows the minors on rows 0, 1 and 2 are the whole scan, so
    a 3 x 5 of rank 2 is decided without building its tree."""
    a = TropMatrix.make(CASES["wide_3x5"][0])
    assert trop_rank(a, 8) == 2
    assert (tropical.FILLS["_rank2_tree"], entries("_rank2_tree")) == (0, 0)


# ---------------------------------------------------------------------------
# the tree test and the scan fail closed, also under python -O

RANK3 = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]


def check_rank_tree_fails_closed():
    """Raises AssertionError unless every check holds; written without
    `assert`, so that it checks under python -O too."""

    def expect(exc_type, call, *args):
        try:
            call(*args)
        except exc_type:
            return
        raise AssertionError(f"{call.__name__} did not raise {exc_type.__name__}")

    a = TropMatrix.make(RANK3)
    if trees._rank2_tree(a) is not None:
        raise AssertionError("a tropical rank 3 matrix got a rank-2 tree")
    expect(RankTooHigh, trees.tree_from_rank2, a)
    expect(AssertionError, trees.known_rank2_tree, a)
    # a rank-2 4 x 4 whose rows 0-2 minors are all singular: a tree test
    # that wrongly finds no tree leaves the scan without a nonsingular
    # 3 x 3, and the scan raises rather than answering
    b = TropMatrix.make(_min_plus([[0, 1], [2, 0], [1, 1], [3, 0]], [[0, 2, 1, 0], [1, 0, 3, 2]]))
    if tropical.trop_rank.__wrapped__(b) != 2:
        raise AssertionError("the product should have tropical rank 2")
    real = trees._rank2_tree
    trees._rank2_tree = lambda m: None
    try:
        expect(AssertionError, tropical.trop_rank.__wrapped__, b)
    finally:
        trees._rank2_tree = real


def test_rank_tree_fails_closed():
    check_rank_tree_fails_closed()


def test_rank_tree_fails_closed_under_python_O():
    here = Path(__file__).resolve().parent
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(here)!r}, {str(here.parent / 'src')!r}]\n"
        "try:\n"
        "    assert False\n"
        "except AssertionError:\n"
        "    sys.exit('asserts are on: not running under -O')\n"
        "import test_rank_tree\n"
        "test_rank_tree.check_rank_tree_fails_closed()\n"
        "print('ok')\n"
    )
    done = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["ok"]
