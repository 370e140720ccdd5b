"""Scalar, series, and symbolic-polynomial arithmetic."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mpoly import (
    MPoly,
    NotQuadratic,
    mpoly_det,
    mpoly_disc,
    mpoly_exact_div,
    sym_matrix_polys,
)
from troplift.errors import (
    NegativeLeading,
    RadicandMismatch,
    ValuationUnknown,
)
from troplift.puiseux import PuiseuxSeries, ps_inv, ps_sqrt, quad_roots
from troplift.quadext import QuadExt, from_lattice, sqrt_exact, to_lattice

F = Fraction


def series(*pairs, trunc=None):
    return PuiseuxSeries.make(pairs, trunc=trunc)


ONE = PuiseuxSeries.constant(F(1))


class TestSeriesBasics:
    def test_add_cancels_leading_term(self):
        x = series((0, 1), (1, 1))
        y = series((0, -1), (2, 1))
        assert x + y == series((1, 1), (2, 1))

    def test_add_fractional_exponents(self):
        half = series((F(1, 2), 1))
        assert half + half == series((F(1, 2), 2))

    def test_add_zero_identity(self):
        x = series((-1, 3), (F(3, 2), F(2, 7)))
        assert x + PuiseuxSeries.zero() == x

    def test_mul(self):
        assert series((0, 1), (1, 1)) * series((0, 1), (1, -1)) == series(
            (0, 1), (2, -1)
        )

    def test_mul_fractional(self):
        assert series((F(1, 3), 1)) * series((F(2, 3), 1)) == series((1, 1))

    def test_inv_geometric(self):
        inv = ps_inv(series((0, 1), (1, 1)), trunc=4)
        assert inv == series((0, 1), (1, -1), (2, 1), (3, -1), trunc=4)

    def test_inv_clamps_trunc_to_what_a_truncated_input_supports(self):
        # 1/(1 + t + 7t^2) has -6 t^2, so 1 + t + O(t^2) fixes only 1 - t
        inv = ps_inv(series((0, 1), (1, 1), trunc=2), trunc=5)
        assert inv == series((0, 1), (1, -1), trunc=2)
        # at val 1 the supported order is x.trunc - 2 val
        inv = ps_inv(series((1, 2), (2, 2), trunc=4), trunc=9)
        assert inv == series((-1, F(1, 2)), (0, F(-1, 2)), (1, F(1, 2)), trunc=2)

    def test_inv_tail_past_trunc(self):
        # every term of the tail lies at or above the order asked for
        assert ps_inv(series((0, 1), (6, 1)), trunc=4) == series((0, 1), trunc=4)
        assert ps_inv(series((0, 3), (6, 1)), trunc=0) == series(trunc=0)

    def test_inv_times_self_is_one(self):
        rng = random.Random(20240901)
        for _ in range(200):
            nterms = rng.randint(1, 4)
            val = F(rng.randint(-3, 3))
            exps = sorted({val + F(rng.randint(0, 12), rng.randint(1, 3)) for _ in range(nterms)})
            exps[0] = val
            coeffs = [F(rng.randint(1, 30), rng.randint(1, 5)) * rng.choice((1, -1)) for _ in exps]
            x = series(*zip(exps, coeffs))
            assert (ps_inv(x) * x - ONE).is_known_zero()

    def test_val_and_sign(self):
        x = series((2, 3), (5, 1))
        assert x.val() == 2
        assert x.lead_sign() == 1

    def test_negative_leading_sign(self):
        x = series((2, -8), (3, 5))
        assert x.val() == 2
        assert x.lead_sign() == -1

    def test_unknown_valuation(self):
        x = series(trunc=10)
        with pytest.raises(ValuationUnknown):
            x.val()

    def test_exact_zero_valuation_is_infinite(self):
        assert PuiseuxSeries.zero().val() is None


class TestSqrt:
    def test_sqrt_monomial(self):
        assert ps_sqrt(series((2, 1))) == series((1, 1))

    def test_sqrt_binomial_series(self):
        got = ps_sqrt(series((0, 4), (1, 4)), trunc=3)
        want = series((0, 2), (1, 1), (2, F(-1, 4)), (3, F(1, 8)), trunc=3)
        assert (got - want).is_known_zero()

    def test_sqrt_clamps_trunc_to_what_a_truncated_input_supports(self):
        got = ps_sqrt(series((0, 1), (1, 2), trunc=2), trunc=5)
        assert got == series((0, 1), (1, 1), trunc=2)
        got = ps_sqrt(series((2, 4), (3, 4), trunc=4), trunc=9)
        assert got == series((1, 2), (2, 1), trunc=3)

    def test_sqrt_tail_past_trunc(self):
        assert ps_sqrt(series((0, 1), (6, 1)), trunc=4) == series((0, 1), trunc=4)
        assert ps_sqrt(series((0, 2), (6, 1)), trunc=0) == series(trunc=0)

    def test_sqrt_irrational_leading(self):
        got = ps_sqrt(series((4, 2)))
        assert got.val() == 2
        lead = got.lead_coeff()
        assert isinstance(lead, QuadExt)
        assert lead == QuadExt(F(0), F(1), F(2))

    def test_sqrt_squares_back(self):
        rng = random.Random(7)
        for _ in range(50):
            val = 2 * F(rng.randint(-2, 2))
            exps = sorted({val + k for k in range(rng.randint(1, 4))})
            exps[0] = val
            coeffs = [F(rng.randint(1, 20), rng.randint(1, 4)) for _ in exps]
            x = series(*zip(exps, coeffs))
            y = ps_sqrt(x)
            assert (y * y - x).is_known_zero()

    def test_sqrt_negative_leading(self):
        with pytest.raises(NegativeLeading):
            ps_sqrt(series((0, -1)))


class TestSerialization:
    def test_series_json_roundtrip(self):
        from troplift import jsonio

        x = series((F(-3, 2), 5), (0, F(7, 3)), (F(1, 2), -2), trunc=F(19, 2))
        assert jsonio.decode_series(json.loads(jsonio.dumps(x))) == x

    def test_series_with_radical_coefficient_roundtrip(self):
        from troplift import jsonio

        y = ps_sqrt(series((4, 2)))  # sqrt(2) t^2
        back = jsonio.decode_series(json.loads(jsonio.dumps(y)))
        assert back == y
        assert isinstance(back.lead_coeff(), QuadExt)

    def test_exact_series_roundtrip(self):
        from troplift import jsonio

        z = series((0, 1), (2, -1))
        obj = json.loads(jsonio.dumps(z))
        assert jsonio.decode_series(obj) == z
        assert obj["trunc"] == "inf"


def _reference_fold(c):
    if isinstance(c, QuadExt):
        return c.a if c.b == 0 else c
    return Fraction(c)


def _reference_make(pairs, trunc=None):
    """PuiseuxSeries.make as first written: a dict keyed by Fraction exponents,
    every exponent and coefficient rebuilt, the sum folded after each term."""
    if trunc is not None:
        trunc = Fraction(trunc)
    acc = {}
    for exp, coeff in pairs:
        exp = Fraction(exp)
        acc[exp] = _reference_fold(acc[exp] + coeff) if exp in acc else _reference_fold(coeff)
    out = []
    for exp in sorted(acc):
        if trunc is not None and exp >= trunc:
            continue
        c = acc[exp]
        if not (c.a == 0 and c.b == 0 if isinstance(c, QuadExt) else c == 0):
            out.append((exp, c))
    return PuiseuxSeries(tuple(out), trunc)


def _typed(s):
    return [(type(e), e, type(c), c) for e, c in s.terms], type(s.trunc), s.trunc


class TestMakeAgainstReference:
    """make merges, folds and drops exactly as the reference body does."""

    @staticmethod
    def _coeff(rng):
        kind = rng.randrange(5)
        if kind == 0:
            return rng.randint(-3, 3)
        if kind == 1:
            return F(rng.randint(-3, 3), rng.randint(1, 4))
        if kind == 2:
            return QuadExt.make(F(rng.randint(-2, 2)), F(rng.randint(-2, 2), 2), F(2))
        if kind == 3:
            return QuadExt(F(rng.randint(-2, 2)), F(0), F(2))  # unfolded, as decoded from JSON
        return QuadExt(F(rng.randint(-2, 2), 3), F(1), F(2))

    def test_random_mixed_pairs(self):
        rng = random.Random(4401)
        for _ in range(600):
            pairs = []
            for _ in range(rng.randint(0, 12)):
                exp = rng.choice((rng.randint(-3, 3), F(rng.randint(-6, 6), rng.randint(1, 3))))
                pairs.append((exp, self._coeff(rng)))
            trunc = rng.choice((None, None, rng.randint(-2, 3), F(rng.randint(-5, 5), 2)))
            assert _typed(PuiseuxSeries.make(pairs, trunc)) == _typed(_reference_make(pairs, trunc))

    def test_cancelling_terms_and_rational_quadext_sums(self):
        r2 = QuadExt(F(1), F(1), F(2))
        pairs = [
            (0, F(1)), (F(0), -1),  # cancels to zero: dropped
            (1, r2), (F(2, 2), QuadExt(F(1), F(-1), F(2))),  # folds to the rational 2
            (F(1, 2), 3), (F(1, 2), F(-1, 2)),
            (F(5, 2), r2), (3, 7),  # at or above trunc: dropped
        ]
        got = PuiseuxSeries.make(pairs, trunc=F(5, 2))
        assert _typed(got) == _typed(_reference_make(pairs, F(5, 2)))
        assert got.terms == ((F(1, 2), F(5, 2)), (F(1), F(2)))
        assert type(got.terms[1][1]) is Fraction


class TestQuadExt:
    def test_field_operations(self):
        x = QuadExt(F(1), F(2), F(3))  # 1 + 2*sqrt(3)
        y = QuadExt(F(-2), F(1), F(3))
        assert x + y == QuadExt(F(-1), F(3), F(3))
        assert x * y == QuadExt(F(4), F(-3), F(3))
        assert (x / y) * y == x
        assert x - x == 0

    def test_rational_values_fold(self):
        assert QuadExt.make(F(2), F(0), F(3)) == F(2)
        assert QuadExt.make(F(1), F(2), F(4)) == F(5)  # sqrt(4) = 2

    def test_exact_sign_with_opposite_parts(self):
        # 7 - 4*sqrt(3) > 0 since 49 > 48; 7 - 5*sqrt(2) < 0 since 49 < 50
        assert QuadExt(F(7), F(-4), F(3)).sign() == 1
        assert QuadExt(F(7), F(-5), F(2)).sign() == -1
        assert QuadExt(F(-7), F(4), F(3)).sign() == -1
        assert QuadExt(F(2), F(-1), F(4)).sign() == 0  # 2 - sqrt(4)


# QuadExt arithmetic as first written: every result rebuilt by make(),
# which re-tests the radicand for a perfect square


def _ref_make(a, b, d):
    a, b, d = Fraction(a), Fraction(b), Fraction(d)
    if b == 0:
        return a
    root = sqrt_exact(d)
    if root is not None:
        return a + b * root
    return QuadExt(a, b, d)


def _ref_pair(v, d):
    if isinstance(v, QuadExt):
        if v.b != 0 and v.d != d:
            raise RadicandMismatch(f"cannot mix sqrt({v.d}) with sqrt({d})")
        return v.a, v.b
    return Fraction(v), Fraction(0)


def _ref_add(x, y):
    oa, ob = _ref_pair(y, x.d)
    return _ref_make(x.a + oa, x.b + ob, x.d)


def _ref_neg(x):
    return QuadExt(-x.a, -x.b, x.d)


def _ref_sub(x, y):
    return _ref_add(x, _ref_neg(y) if isinstance(y, QuadExt) else -Fraction(y))


def _ref_mul(x, y):
    oa, ob = _ref_pair(y, x.d)
    return _ref_make(x.a * oa + x.b * ob * x.d, x.a * ob + x.b * oa, x.d)


def _ref_inverse(x):
    n = x.a * x.a - x.b * x.b * x.d
    if n == 0:
        raise ZeroDivisionError("quadratic-extension value has zero norm")
    return _ref_make(x.a / n, -x.b / n, x.d)


def _ref_div(x, y):
    if isinstance(y, QuadExt):
        return _ref_mul(x, _ref_inverse(y))
    return _ref_make(x.a / Fraction(y), x.b / Fraction(y), x.d)


# (name, fast path, reference) for x a QuadExt and y any coefficient
QUAD_OPS = [
    ("add", lambda x, y: x + y, _ref_add),
    ("radd", lambda x, y: y + x, _ref_add),
    ("sub", lambda x, y: x - y, _ref_sub),
    ("rsub", lambda x, y: y - x, lambda x, y: _ref_add(_ref_neg(x), y)),
    ("mul", lambda x, y: x * y, _ref_mul),
    ("rmul", lambda x, y: y * x, _ref_mul),
    ("div", lambda x, y: x / y, _ref_div),
    ("rdiv", lambda x, y: y / x, lambda x, y: _ref_mul(_ref_inverse(x), y)),
    ("neg", lambda x, y: -x, lambda x, y: _ref_neg(x)),
    ("inverse", lambda x, y: x.inverse(), lambda x, y: _ref_inverse(x)),
]


def _outcome(fn, x, y):
    """The exact type and value of fn(x, y), or the name of what it raised."""
    try:
        v = fn(x, y)
    except (ZeroDivisionError, RadicandMismatch) as exc:
        return type(exc).__name__
    if isinstance(v, QuadExt):
        return QuadExt, v.a, v.b, v.d
    return type(v), v


RATIONALS = st.fractions(min_value=-20, max_value=20, max_denominator=12)
NONZERO = RATIONALS.filter(bool)
RADICANDS = st.fractions(min_value=-30, max_value=30, max_denominator=6).filter(
    lambda d: sqrt_exact(d) is None
)


@st.composite
def _known_radicand_pairs(draw):
    """x = a + b sqrt(d) with b != 0 and d not a square; y over the same d,
    with the same or opposite b (so sums and products can fold), rational
    or an int."""
    d = draw(RADICANDS)
    x = QuadExt(draw(RATIONALS), draw(NONZERO), d)
    kind = draw(st.sampled_from(["quad", "cancel", "conjugate", "fraction", "int"]))
    if kind == "quad":
        y = QuadExt(draw(RATIONALS), draw(NONZERO), d)
    elif kind == "cancel":
        y = QuadExt(draw(RATIONALS), -x.b, d)
    elif kind == "conjugate":
        y = QuadExt(x.a, -x.b, d)
    elif kind == "fraction":
        y = draw(RATIONALS)
    else:
        y = draw(st.integers(-5, 5))
    return x, y


class TestKnownRadicand:
    """Arithmetic on values whose radicand is known not to be a square
    gives the values, types and errors of the make()-based arithmetic."""

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_known_radicand_pairs())
    def test_matches_the_make_based_arithmetic(self, pair):
        x, y = pair
        for name, fast, ref in QUAD_OPS:
            assert _outcome(fast, x, y) == _outcome(ref, x, y), name

    @given(RADICANDS, RATIONALS, NONZERO, RATIONALS)
    def test_rational_results_are_plain_fractions(self, d, a, b, c):
        x = QuadExt(a, b, d)
        for v in (x + QuadExt(c, -b, d), x - QuadExt(c, b, d), x * QuadExt(a, -b, d), x / x):
            assert type(v) is Fraction
        assert x + QuadExt(c, -b, d) == a + c
        assert x * QuadExt(a, -b, d) == x.norm()

    @given(RADICANDS, RADICANDS, NONZERO, NONZERO)
    def test_two_radicands_still_raise(self, d1, d2, b1, b2):
        if d1 == d2:
            return
        x, y = QuadExt(F(1), b1, d1), QuadExt(F(2), b2, d2)
        for name, fast, _ in QUAD_OPS[:8]:
            with pytest.raises(RadicandMismatch):
                fast(x, y)


@st.composite
def _lattice_groups(draw):
    """(d, groups): lists of coefficients over the one radicand d, or
    rational ones for d = None, with zero a-parts among them."""
    d = draw(st.one_of(st.none(), st.just(F(3, 5)), RADICANDS))
    if d is None:
        coeff = RATIONALS
    else:
        a_part = st.one_of(st.just(F(0)), RATIONALS)
        coeff = st.builds(lambda a, b: QuadExt.make(a, b, d), a_part, RATIONALS)
    return d, draw(st.lists(st.lists(coeff, max_size=6), min_size=1, max_size=4))


class TestCoefficientLattice:
    @settings(max_examples=200, deadline=None)
    @given(_lattice_groups(), st.sampled_from([1, -1, -6]))
    def test_round_trip(self, drawn, scale):
        """Each coefficient is (A + B sqrt(pr)) / D on its group's
        denominator, and comes back with its value and type under any
        nonzero scale of the pair and the denominator."""
        d, groups = drawn
        radicand, rows = to_lattice(groups)
        carried = any(isinstance(c, QuadExt) for group in groups for c in group)
        assert radicand == (d if carried else None)
        assert len(rows) == len(groups)
        for group, (den, pairs) in zip(groups, rows):
            assert type(den) is int and den > 0 and len(pairs) == len(group)
            for c, (a, b) in zip(group, pairs):
                assert type(a) is int and type(b) is int
                back = from_lattice(a * scale, b * scale, den * scale, radicand)
                assert (type(back), back) == (type(c), c)

    def test_denominator_is_the_groups_least(self):
        r = QuadExt.make(F(1, 2), F(1, 3), F(3, 5))  # 1/2 + (1/3) sqrt(3/5)
        radicand, [(den, pairs), (one, empty)] = to_lattice([[r, F(1, 4)], []])
        # sqrt(3/5) = sqrt(15) / 5, so (1/3) sqrt(3/5) = sqrt(15) / 15
        assert (radicand, den, pairs) == (F(3, 5), 60, [(30, 4), (15, 0)])
        assert (one, empty) == (1, [])


class TestQuadRoots:
    def test_rational_roots(self):
        x1, x2, sign = quad_roots(ONE, PuiseuxSeries.constant(F(-3)), PuiseuxSeries.constant(F(2)))
        assert sign == 1
        got = {tuple(x1.terms), tuple(x2.terms)}
        assert got == {((F(0), F(2)),), ((F(0), F(1)),)}

    def test_negative_discriminant(self):
        x1, x2, sign = quad_roots(ONE, PuiseuxSeries.zero(), series((2, 1)))
        assert sign == -1 and x1 is None and x2 is None

    def test_vieta(self):
        rng = random.Random(11)
        for _ in range(40)        :
            a = series((0, F(rng.randint(1, 9))), (1, F(rng.randint(-9, 9))))
            b = series((0, F(rng.randint(1, 9)) * rng.choice((1, -1))), (2, 1))
            c = series((rng.randint(0, 2), F(rng.randint(1, 9))))
            x1, x2, sign = quad_roots(a, b, c)
            if sign < 0:
                continue
            assert (a * x1 * x2 - c).is_known_zero()
            assert (a * (x1 + x2) + b).is_known_zero()

    def test_glued_block_quadratic_valuations(self):
        # Bordered 3x3 completion: x^2 + b x + c with val(b) = 0 and
        # val(c) >= 0 has one root of valuation zero, the other nonnegative.
        b = series((0, 3), (1, 2))
        c = series((1, 5))
        x1, x2, sign = quad_roots(ONE, b, c)
        assert sign == 1
        roots = sorted((x1, x2), key=lambda r: r.val())
        assert roots[0].val() == 0
        assert roots[1].val() >= 0


def _delete_rc(mat, i, j):
    return [[e for jj, e in enumerate(row) if jj != j] for ii, row in enumerate(mat) if ii != i]


class TestMPoly:
    def test_det_2x2(self):
        nvars = 4
        m = [[MPoly.var(nvars, 0), MPoly.var(nvars, 1)], [MPoly.var(nvars, 2), MPoly.var(nvars, 3)]]
        det = mpoly_det(m)
        a, b, c, d = (MPoly.var(nvars, k) for k in range(4))
        assert det == a * d - b * c

    def test_exact_div(self):
        nvars = 2
        x, y = MPoly.var(nvars, 0), MPoly.var(nvars, 1)
        p = (x + y) * (x - y) * (x + 3)
        assert mpoly_exact_div(p, x + y) == (x - y) * (x + 3)

    def test_bareiss_matches_cofactor(self):
        rng = random.Random(3)
        nvars = 1
        for _ in range(10):
            n = 4
            m = [
                [MPoly.const(nvars, rng.randint(-5, 5)) + MPoly.var(nvars, 0) * rng.randint(-2, 2) for _ in range(n)]
                for _ in range(n)
            ]
            # cofactor expansion along the first row as the oracle
            def cof(mat):
                if len(mat) == 1:
                    return mat[0][0]
                out = MPoly.const(nvars, 0)
                for j, e in enumerate(mat[0]):
                    sub = cof(_delete_rc(mat, 0, j))
                    term = e * sub
                    out = out + (term if j % 2 == 0 else -term)
                return out

            assert mpoly_det(m) == cof(m)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_symmetric_discriminant_identity(self, n):
        # Disc_{m_ij}(det M) = 4 M_i M_j for every i < j, exactly.
        mat, index, nvars = sym_matrix_polys(n)
        det = mpoly_det(mat)
        for i in range(n):
            for j in range(i + 1, n):
                disc = mpoly_disc(det, index[(i, j)])
                mi = mpoly_det(_delete_rc(mat, i, i)) if n > 1 else MPoly.const(nvars, 1)
                mj = mpoly_det(_delete_rc(mat, j, j))
                assert disc == 4 * mi * mj

    def test_disc_requires_quadratic(self):
        nvars = 2
        x = MPoly.var(nvars, 0)
        with pytest.raises(NotQuadratic):
            mpoly_disc(x * x * x, 0)
