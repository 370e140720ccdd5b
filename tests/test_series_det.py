"""The series determinant against the permutation expansion it replaces.

The references below are the Leibniz-expansion `series_det` and the two
split loops that `troplift.lifts` used before the Laplace kernel; terms and
truncation orders must agree exactly, truncated entries included.  The
splits take the matrix with the unknown's cells set to the exact zero
(symmetric for the quadratic split) and are compared with the loops on the
matrix as drawn; a minor on chosen rows and columns is compared with the
expansion of its submatrix.  Some matrices carry one long row, a many-term
quotient with large-prime denominators like the solved entry of a singular
lift, so the kernel moves it last and scales each row by its own
denominator.
"""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mpoly import perm_sign
from samples import scale_series
from troplift import lifts
from troplift.errors import DimensionMismatch, RadicandMismatch
from troplift.fixtures import fixture
from troplift.lifts import _split_det_linear, _split_det_quadratic, series_det
from troplift.puiseux import PuiseuxSeries, ps_div, ps_sqrt, quad_ints
from troplift.quadext import QuadExt
from troplift import verify
from troplift.verify import _det_vanishes, _min_plus, minor_ints, series_grid

F = Fraction


def ref_series_det(mat):
    n = len(mat)
    total = PuiseuxSeries.zero()
    for sigma in permutations(range(n)):
        prod = PuiseuxSeries.constant(F(perm_sign(sigma)))
        for i in range(n):
            prod = prod * mat[i][sigma[i]]
        total = total + prod
    return total


def ref_split_linear(rows, istar, jstar):
    n = len(rows)
    acoef = PuiseuxSeries.zero()
    bcoef = PuiseuxSeries.zero()
    for sigma in permutations(range(n)):
        prod = PuiseuxSeries.constant(F(perm_sign(sigma)))
        uses = sigma[istar] == jstar
        for i in range(n):
            if i == istar and uses:
                continue
            prod = prod * rows[i][sigma[i]]
        if uses:
            acoef = acoef + prod
        else:
            bcoef = bcoef + prod
    return acoef, bcoef


def ref_split_quadratic(rows, i, j):
    n = len(rows)
    parts = [PuiseuxSeries.zero(), PuiseuxSeries.zero(), PuiseuxSeries.zero()]
    special = {(i, j), (j, i)}
    for sigma in permutations(range(n)):
        uses = sum(1 for r in range(n) if (r, sigma[r]) in special)
        prod = PuiseuxSeries.constant(F(perm_sign(sigma)))
        for r in range(n):
            if (r, sigma[r]) in special:
                continue
            prod = prod * rows[r][sigma[r]]
        parts[uses] = parts[uses] + prod
    return parts[2], parts[1], parts[0]


def same(got, want):
    assert (got.terms, got.trunc) == (want.terms, want.trunc)


def as_series(minor, exp_den, radicand):
    """The series of minor_ints' (ints, known, den) on a grid with the
    lattice exp_den and the radicand p/r: an odd key is a multiple of
    sqrt(pr) = r sqrt(p/r)."""
    ints, known, den = minor
    pairs = []
    for key, c in ints.items():
        if key % 2:
            coeff = QuadExt.make(0, F(c * radicand.denominator, den), radicand)
        else:
            coeff = F(c, den)
        pairs.append((F(key // 2, exp_den), coeff))
    return PuiseuxSeries.make(pairs, None if known is None else F(known, exp_den))


# --- inputs ---------------------------------------------------------------

EXPONENTS = st.sampled_from([F(k, 2) for k in range(-2, 9)] + [F(1, 3), F(4, 3)])
RATIONALS = st.sampled_from([F(1), F(-1), F(2), F(-3), F(1, 2), F(-5, 3), F(7, 4)])


@st.composite
def coefficients(draw, radicand):
    a = draw(RATIONALS)
    if radicand is None or draw(st.booleans()):
        return a
    b = draw(RATIONALS)
    return QuadExt.make(draw(st.sampled_from([F(0), a])), b, radicand)


@st.composite
def entries(draw, radicand, truncated):
    kind = draw(st.sampled_from(["zero", "exact", "exact", "exact", "truncated", "unknown"]))
    if kind == "zero":
        return PuiseuxSeries.zero()
    if kind == "unknown" and truncated:  # no known term: O(t^k)
        return PuiseuxSeries((), draw(EXPONENTS) + 2)
    pairs = [
        (draw(EXPONENTS), draw(coefficients(radicand)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    trunc = None
    if kind != "exact" and truncated:
        trunc = max(e for e, _ in pairs) + draw(st.sampled_from([F(1, 2), F(1), F(3)]))
    return PuiseuxSeries.make(pairs, trunc)


PRIMES = st.sampled_from([997, 1009, 7919, 104729])


def long_quotient(num_coeff, den_coeffs, exp, count):
    """num_coeff t^exp / (sum den_coeffs[k] t^(k/2)) to `count` lattice
    points past its lead: up to `count` terms on the half-integer lattice."""
    num = PuiseuxSeries.monomial(num_coeff, exp)
    den = PuiseuxSeries.make([(F(k, 2), c) for k, c in enumerate(den_coeffs)])
    return ps_div(num, den, F(count, 2))  # the order of 1/den, which leads at 0


@st.composite
def long_entries(draw, radicand, truncated):
    """A quotient of 15 to 30 terms whose coefficient denominators are
    products of large primes; exact (its terms alone) unless truncated."""
    den = [F(draw(PRIMES), draw(PRIMES)), F(draw(st.integers(1, 9)), draw(PRIMES))]
    den += [F(draw(st.integers(-9, 9)), draw(PRIMES)) for _ in range(draw(st.integers(0, 2)))]
    num = F(draw(PRIMES), draw(PRIMES))
    q = long_quotient(num, den, draw(EXPONENTS), draw(st.integers(15, 30)))
    q = scale_series(q, draw(coefficients(radicand)))
    return q if truncated else PuiseuxSeries.make(q.terms)


@st.composite
def matrices(draw, min_n=0, max_n=5):
    n = draw(st.integers(min_n, max_n))
    radicand = draw(st.sampled_from([None, F(2), F(3, 5)]))
    truncated = draw(st.booleans())
    rows = [[draw(entries(radicand, truncated)) for _ in range(n)] for _ in range(n)]
    if n >= 2 and draw(st.integers(0, 3)) == 0:
        # one long row, at any index: moving it last may be an odd permutation
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(
            long_entries(radicand, truncated)
        )
    if n >= 2 and draw(st.booleans()):
        # rank-deficient: one row a multiple, or the sum, of others
        i, k = draw(st.permutations(range(n)))[:2]
        if n >= 3 and draw(st.booleans()):
            l = next(r for r in range(n) if r not in (i, k))
            rows[i] = [x + y for x, y in zip(rows[k], rows[l])]
        else:
            c = PuiseuxSeries.monomial(draw(coefficients(radicand)), draw(EXPONENTS))
            rows[i] = [x * c for x in rows[k]]
    return rows


SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# --- the determinant ------------------------------------------------------


@SETTINGS
@given(matrices())
def test_series_det_matches_permutation_expansion(rows):
    same(series_det(rows), ref_series_det(rows))


@settings(max_examples=4, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(matrices(min_n=6, max_n=6))
def test_series_det_matches_at_six(rows):
    same(series_det(rows), ref_series_det(rows))


def test_row_permutations_change_only_the_sign():
    """A 4x4 whose second row holds a 24-term quotient: every order of its
    rows, the long one moved last by an odd or an even permutation or not
    moved at all, gives the determinant times the permutation's sign."""
    x = long_quotient(F(1009, 997), [F(997, 1009), F(3, 7919), F(-5, 104729)], F(1, 2), 24)
    assert len(x.terms) == 24
    rows = [
        [mono(1, 0), mono(2, 1), mono(-1, F(1, 2)), mono(3, 2)],
        [mono(F(1, 3), 1), x, mono(1, 0), PuiseuxSeries.make([(F(0), F(1)), (F(1), F(2))])],
        [mono(1, 1), mono(1, 0), mono(F(5, 7), F(3, 2)), mono(1, 0)],
        [mono(2, 0), mono(-1, 1), mono(1, 1), mono(1, F(1, 2))],
    ]
    det = series_det(rows)
    assert det.terms and det.trunc is not None
    same(det, ref_series_det(rows))
    for sigma in permutations(range(4)):
        got = series_det([rows[k] for k in sigma])
        want = det if perm_sign(sigma) > 0 else -det
        same(got, want)


def ref_det_vanishes(mat):
    """_det_vanishes with the tropical value taken by _min_plus over the
    entries' Fraction valuations and truncations."""
    det = series_det(mat)
    if not det.is_known_zero():
        return False, f"nonzero at order {det.val()}"
    if det.trunc is None:
        return True, "exactly zero"
    vals = [[s.terms[0][0] if s.terms else s.trunc for s in row] for row in mat]
    value = _min_plus(vals, [[s.trunc for s in row] for row in mat])[0][-1]
    if det.trunc <= value:
        return False, f"known only to order {det.trunc}, not above its tropical value {value}"
    return True, f"zero up to order {det.trunc}"


def det_vanishes(mat):
    """_det_vanishes on the whole of a square matrix's grid."""
    return _det_vanishes(series_grid(mat), range(len(mat)), range(len(mat)))


@SETTINGS
@given(matrices(min_n=1))
def test_det_vanishes_reads_the_tropical_value_of_the_reference(rows):
    assert det_vanishes(rows) == ref_det_vanishes(rows)


def test_det_vanishes_names_the_tropical_value():
    one, vague = mono(1, 0), PuiseuxSeries((), F(3, 2))
    # det = O(t^(3/2)) - t^(1/3) t^(7/6): no term below 3/2, its tropical value
    rows = [[vague, mono(1, F(1, 3))], [mono(1, F(7, 6)), mono(1, 0)]]
    assert det_vanishes(rows) == ref_det_vanishes(rows) == (
        False,
        "known only to order 3/2, not above its tropical value 3/2",
    )
    # det = (1 + O(t^2)) - 1 = O(t^2), above its tropical value 0
    rows = [[PuiseuxSeries.make([(F(0), F(1))], F(2)), one], [one, one]]
    assert det_vanishes(rows) == ref_det_vanishes(rows) == (True, "zero up to order 2")


def mono(c, e, trunc=None):
    return PuiseuxSeries.monomial(F(c), F(e), trunc)


def test_empty_matrix_is_one():
    same(series_det([]), PuiseuxSeries.constant(F(1)))


def test_term_one_step_below_the_order_is_kept():
    # det = (1 + t + O(t^2)) - 1 = t + O(t^2): the known term sits one grid
    # step below the order, so pruning one step early would lose it
    one = mono(1, 0)
    corner = PuiseuxSeries.make([(F(0), F(1)), (F(1), F(1))], F(2))
    got = series_det([[one, one], [one, corner]])
    assert (got.terms, got.trunc) == (((F(1), F(1)),), F(2))
    # the same one step below the order on a finer grid, with a radicand
    r = QuadExt.make(0, 1, F(3, 5))
    corner = PuiseuxSeries.make([(F(0), F(1)), (F(1, 3), r)], F(2, 3))
    rows = [[one, one, mono(1, 5)], [one, corner, mono(2, 1)], [mono(1, 4), mono(1, 4), one]]
    got = series_det(rows)
    same(got, ref_series_det(rows))
    assert got.terms[0] == (F(1, 3), r)


def test_exact_zero_entries_skip_permutations():
    z = PuiseuxSeries.zero()
    vague = PuiseuxSeries((), F(1))
    # the only permutation through the vague entry meets an exact zero
    got = series_det([[mono(2, 0), vague], [z, mono(3, 1)]])
    assert (got.terms, got.trunc) == (((F(1), F(6)),), None)


def test_mixed_radicands_raise():
    s2 = PuiseuxSeries.constant(QuadExt.make(0, 1, 2))
    s3 = PuiseuxSeries.constant(QuadExt.make(0, 1, 3))
    one = mono(1, 0)
    for rows in ([[s2, one], [one, s3]], [[s2, s3], [one, one]]):
        with pytest.raises(RadicandMismatch):
            ref_series_det(rows)
        with pytest.raises(RadicandMismatch):
            series_det(rows)


def test_series_det_and_ps_sqrt_refuse_two_radicands_alike():
    """Both kernels put their coefficients on quadext's lattice, so two
    radicands are refused with one message."""
    x = PuiseuxSeries.make(
        [(F(0), F(1)), (F(1), QuadExt.make(0, 1, 2)), (F(2), QuadExt.make(1, 1, 3))], F(3)
    )
    with pytest.raises(RadicandMismatch) as by_det:
        series_det([[x]])
    with pytest.raises(RadicandMismatch) as by_sqrt:
        ps_sqrt(x)
    assert str(by_det.value) == str(by_sqrt.value) == "cannot mix sqrt(3) with sqrt(2)"


def test_non_square_input_is_refused():
    one = mono(1, 0)
    for rows in ([[one, one, one], [one, one, one]], [[one, one], [one, one], [one, one]]):
        with pytest.raises(DimensionMismatch):
            series_det(rows)


def test_radicand_products_fold_to_rationals():
    r = QuadExt.make(1, 1, F(3, 5))
    rows = [
        [PuiseuxSeries.constant(r), mono(1, 1)],
        [mono(1, 1), PuiseuxSeries.constant(QuadExt(r.a, -r.b, r.d))],
    ]
    got = series_det(rows)
    same(got, ref_series_det(rows))
    assert got.terms[0][1] == F(2, 5) and type(got.terms[0][1]) is Fraction


# --- minors ---------------------------------------------------------------


@st.composite
def rectangles(draw):
    """A d x n matrix, d and n in 0..5, with a chosen minor's rows and
    columns: as many of each, distinct, in any order."""
    d, n = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    radicand = draw(st.sampled_from([None, F(2), F(3, 5)]))
    truncated = draw(st.booleans())
    mat = [[draw(entries(radicand, truncated)) for _ in range(n)] for _ in range(d)]
    if d and n and draw(st.integers(0, 3)) == 0:
        mat[draw(st.integers(0, d - 1))][draw(st.integers(0, n - 1))] = draw(
            long_entries(radicand, truncated)
        )
    k = draw(st.integers(0, min(d, n)))
    return mat, draw(st.permutations(range(d)))[:k], draw(st.permutations(range(n)))[:k]


@SETTINGS
@given(rectangles())
def test_minor_matches_the_determinant_of_its_submatrix(drawn):
    mat, rows, cols = drawn
    same(series_det(mat, rows, cols), ref_series_det([[mat[r][c] for c in cols] for r in rows]))


@SETTINGS
@given(rectangles())
def test_minor_ints_are_the_terms_of_series_det(drawn):
    """The int reader the symmetric solve takes its coefficients from,
    once converted, is series_det term for term, truncation included."""
    mat, rows, cols = drawn
    grid = series_grid(mat)
    got = as_series(minor_ints(grid, rows, cols), grid.exp_den, grid.radicand)
    same(got, series_det(mat, rows, cols))


def test_minor_of_unequal_sides_is_refused():
    one = mono(1, 0)
    mat = [[one, mono(2, 1), one], [one, one, mono(1, 2)]]
    for rows, cols in (([0, 1], [0]), ([0], [0, 2]), ([], [1]), ([0, 1], None), (None, [0, 1, 2])):
        with pytest.raises(DimensionMismatch):
            series_det(mat, rows, cols)


# --- the splits -----------------------------------------------------------


def zeroed(rows, *cells):
    """rows with the unknown's cells set to the exact zero."""
    out = [row[:] for row in rows]
    for r, c in cells:
        out[r][c] = PuiseuxSeries.zero()
    return out


@st.composite
def symmetric_matrices(draw):
    """matrices(min_n=2) mirrored from its upper triangle."""
    rows = draw(matrices(min_n=2))
    return [[rows[min(r, c)][max(r, c)] for c in range(len(rows))] for r in range(len(rows))]


@SETTINGS
@given(matrices(min_n=1), st.data())
def test_linear_split_matches(rows, data):
    n = len(rows)
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    got = _split_det_linear(zeroed(rows, (i, j)), i, j)
    for got, want in zip(got, ref_split_linear(rows, i, j)):
        same(got, want)


@SETTINGS
@given(symmetric_matrices(), st.data())
def test_quadratic_split_matches(rows, data):
    n = len(rows)
    i, j = data.draw(st.permutations(range(n)))[:2]
    grid, *got = _split_det_quadratic(zeroed(rows, (i, j), (j, i)), i, j)
    for got, want in zip(got, ref_split_quadratic(rows, i, j)):
        same(as_series(got, grid.exp_den, grid.radicand), want)


def test_splits_take_two_and_three_determinants(monkeypatch):
    """The linear split reads the cofactor and det m0 as series, the
    symmetric one the two-sided minor, one cofactor and det m0 as ints,
    each split off one grid of m0; and every symmetric singular lift's
    quadratic comes from one such split, solved on its ints."""
    calls, reads, grids = [], [], []

    def counted(*args):
        calls.append(args)
        return series_det(*args)

    def counted_ints(*args):
        reads.append(args)
        return minor_ints(*args)

    def counted_grid(mat):
        grids.append(len(mat))
        return series_grid(mat)

    monkeypatch.setattr(lifts, "series_det", counted)
    monkeypatch.setattr(lifts, "minor_ints", counted_ints)
    for module in (lifts, verify):
        monkeypatch.setattr(module, "series_grid", counted_grid)
    sym = [[mono(r + c + 1, abs(r - c)) for c in range(4)] for r in range(4)]
    _split_det_linear(zeroed(sym, (1, 2)), 1, 2)
    assert len(calls) == 2 and not reads and grids == [4]
    del calls[:], grids[:]
    _split_det_quadratic(zeroed(sym, (1, 2), (2, 1)), 1, 2)
    assert len(reads) == 3 and not calls and grids == [4]
    del reads[:]
    solves = []

    def solve(*args):
        solves.append(args)
        return quad_ints(*args)

    monkeypatch.setattr(lifts, "quad_ints", solve)
    assert lifts.lift_sym_corank1(fixture("fig2a"), "R").valid
    assert solves and len(reads) == 3 * len(solves) and not calls
