"""Series inverse, square root and quadratic roots against the power sums
they replace.

The references below are the geometric and binomial power-sum `ps_inv` and
`ps_sqrt` and the product-form `quad_roots` that `troplift.puiseux` used
before the coefficient recurrences, and the series-level
`quad_numerators` that it used before the integer kernel `quad_ints`;
terms and truncation orders must agree exactly, with a requested order
beyond what a truncated input supports clamped to that order before it
reaches a reference.  One line of
each power sum is tagged: where today's code asks a tail with no term below
the order for its valuation, the reference raises `TailPastOrder`, a
`ValuationUnknown`, where the recurrence answers.
"""

from fractions import Fraction

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from samples import scale_series
from troplift.config import default_truncation
from troplift.errors import (
    InversionOfZero,
    NegativeLeading,
    NestedRadical,
    TropliftError,
    ValuationUnknown,
)
from troplift.puiseux import (
    DEFAULT_DEPTH,
    PuiseuxSeries,
    ps_div,
    ps_inv,
    ps_sqrt,
    quad_numerators,
    quad_roots,
)
from troplift.quadext import QuadExt, coeff_sign, sqrt_exact
from troplift.tropmat import TropMatrix
from troplift.verify import series_det

F = Fraction


class TailPastOrder(ValuationUnknown):
    """Today's power sums: the tail has no term below the order asked for."""


def ref_ps_inv(x, trunc=None):
    if x.is_known_zero():
        raise InversionOfZero("no known nonzero term to invert on")
    v = x.val()
    c = x.lead_coeff()
    cinv = c.inverse() if isinstance(c, QuadExt) else Fraction(1) / c
    unit = scale_series(x.shift(-v), cinv)
    u = unit - PuiseuxSeries.constant(Fraction(1))
    if u.is_known_zero() and x.trunc is None:
        return PuiseuxSeries.monomial(cinv, -v)
    if trunc is None:
        trunc = (x.trunc - 2 * v) if x.trunc is not None else (-v + DEFAULT_DEPTH)
    trunc = Fraction(trunc)
    rel = trunc + v
    acc = PuiseuxSeries.make([(Fraction(0), Fraction(1))], rel)
    if not u.is_known_zero():
        power = PuiseuxSeries.make(u.terms, rel)
        if power.is_known_zero():
            raise TailPastOrder("power.val() of a series with no known term")
        uval = power.val()
        k = 1
        while k * uval < rel and not power.is_known_zero():
            acc = acc + scale_series(power, Fraction((-1) ** k))
            power = PuiseuxSeries.make((power * u).terms, rel)
            k += 1
    return scale_series(acc, cinv).shift(-v)


def binomial_half(k):
    out = Fraction(1)
    for i in range(k):
        out *= (Fraction(1, 2) - i) / (i + 1)
    return out


def ref_ps_sqrt(x, trunc=None):
    if x.is_known_zero():
        if x.trunc is None:
            return PuiseuxSeries.zero()
        raise ValuationUnknown("square root of a series with unknown valuation")
    v = x.val()
    c = x.lead_coeff()
    if coeff_sign(c) < 0:
        raise NegativeLeading(f"leading coefficient {c} is negative")
    if isinstance(c, QuadExt):
        raise NestedRadical("leading coefficient already carries a radicand")
    root = sqrt_exact(c)
    if root is None:
        if any(isinstance(t, QuadExt) for _, t in x.terms):
            raise NestedRadical("series coefficients already carry a radicand")
        root = QuadExt(Fraction(0), Fraction(1), c)
    unit = scale_series(x.shift(-v), Fraction(1) / c)
    u = unit - PuiseuxSeries.constant(Fraction(1))
    if u.is_known_zero() and u.trunc is None:
        return PuiseuxSeries.monomial(root, v / 2)
    if trunc is None:
        trunc = (x.trunc - v / 2) if x.trunc is not None else (v / 2 + DEFAULT_DEPTH)
    trunc = Fraction(trunc)
    rel = trunc - v / 2
    acc = PuiseuxSeries.make([(Fraction(0), Fraction(1))], rel)
    if not u.is_known_zero():
        power = PuiseuxSeries.make(u.terms, rel)
        if power.is_known_zero():
            raise TailPastOrder("power.val() of a series with no known term")
        uval = power.val()
        k = 1
        while k * uval < rel and not power.is_known_zero():
            acc = acc + scale_series(power, binomial_half(k))
            power = PuiseuxSeries.make((power * u).terms, rel)
            k += 1
    return scale_series(acc, root).shift(v / 2)


def ref_quad_roots(A, B, C, trunc=None):
    if A.is_known_zero():
        if A.trunc is None:
            raise InversionOfZero("leading coefficient is exactly zero")
        raise ValuationUnknown("leading coefficient has unknown valuation")
    disc = B * B - 4 * A * C
    if disc.is_known_zero():
        if disc.trunc is None:
            x = (-B) * ref_ps_inv(scale_series(A, Fraction(2)), trunc=trunc)
            return x, x, 0
        raise ValuationUnknown("discriminant vanishes below its truncation order")
    sign = disc.lead_sign()
    if sign < 0:
        return None, None, -1
    sq = ref_ps_sqrt(disc, trunc=trunc)
    if B.is_known_zero():
        eps = 1
    else:
        eps = (-B).lead_sign() * sq.lead_sign()
    inv2a = ref_ps_inv(scale_series(A, Fraction(2)), trunc=trunc)
    x1 = ((-B) + scale_series(sq, Fraction(eps))) * inv2a
    x2 = ((-B) - scale_series(sq, Fraction(eps))) * inv2a
    return x1, x2, 1


def ref_quad_numerators(A, B, C, trunc=None):
    if A.is_known_zero():
        if A.trunc is None:
            raise InversionOfZero("leading coefficient is exactly zero")
        raise ValuationUnknown("leading coefficient has unknown valuation")
    disc = B * B - 4 * A * C
    two_a = scale_series(A, Fraction(2))
    if disc.is_known_zero():
        if disc.trunc is None:
            return -B, -B, two_a, 0
        raise ValuationUnknown("discriminant vanishes below its truncation order")
    if disc.lead_sign() < 0:
        return None, None, two_a, -1
    sq = ps_sqrt(disc, trunc=trunc)
    if B.is_known_zero():
        eps = 1
    else:
        eps = (-B).lead_sign() * sq.lead_sign()
    neg_b, root = -B, scale_series(sq, Fraction(eps))
    return neg_b + root, neg_b - root, two_a, 1


def outcome(fn, *args, **kwargs):
    """(terms, trunc) of each series in the result, or the error raised."""
    try:
        got = fn(*args, **kwargs)
    except TropliftError as exc:
        return type(exc)
    if isinstance(got, tuple):
        return tuple(x if x is None or isinstance(x, int) else (x.terms, x.trunc) for x in got)
    return got.terms, got.trunc


def lead_only(exp, coeff, trunc):
    """A result whose tail lies at or above its order: the lead term alone."""
    return PuiseuxSeries.make([(exp, coeff)], trunc).terms, trunc


# --- inputs ---------------------------------------------------------------

DENOMS = st.sampled_from([1, 2, 3, 6])
RATIONALS = st.sampled_from([F(1), F(-1), F(2), F(-3), F(1, 2), F(-5, 3), F(7, 4)])
RADICANDS = st.sampled_from([None, F(2), F(3, 5)])
ORDERS = st.integers(-3, 30).map(lambda k: F(k, 6))  # requested depth past the lead


@st.composite
def coefficients(draw, radicand):
    a = draw(RATIONALS)
    if radicand is None or draw(st.booleans()):
        return a
    return QuadExt.make(draw(st.sampled_from([F(0), a])), draw(RATIONALS), radicand)


@st.composite
def series(draw, radicand=None, lead=None):
    """A nonzero series with a tail on denominators 1, 2, 3 and 6, exact or
    truncated (the order may cut into the tail, never the lead)."""
    v = F(draw(st.integers(-6, 6)), draw(DENOMS))
    if lead is None:
        lead = draw(coefficients(radicand))
    pairs = [(v, lead)]
    for _ in range(draw(st.integers(0, 3))):
        pairs.append((v + F(draw(st.integers(1, 12)), draw(DENOMS)), draw(coefficients(radicand))))
    trunc = None
    if draw(st.booleans()):
        trunc = v + F(draw(st.integers(1, 14)), draw(DENOMS))
    return PuiseuxSeries.make(pairs, trunc)


def series_or_zero(radicand):
    nonzero = series(radicand)
    return st.one_of(nonzero, nonzero, nonzero, st.just(PuiseuxSeries.zero()))


def supported(trunc, x, shift):
    """The order the references get: trunc, clamped to x.trunc - shift for a
    truncated x (shift is 2 val(x) for an inverse and val(x)/2 for a root)."""
    return trunc if x.trunc is None or trunc is None else min(trunc, x.trunc - shift)


def inverse_order(draw, x):
    """None (the default) for a truncated x, else an order up to 5 past the
    lead, which may exceed what a truncated x supports."""
    if x.trunc is not None and draw(st.booleans()):
        return None
    return -x.val() + draw(ORDERS)


@st.composite
def inverse_cases(draw):
    x = draw(series(draw(RADICANDS)))
    return x, inverse_order(draw, x)


@st.composite
def sqrt_cases(draw):
    lead = draw(st.sampled_from([F(1), F(4), F(9, 4), F(2), F(3), F(5, 7), F(-1)]))
    radicand = None if sqrt_exact(lead) is None and draw(st.booleans()) else draw(RADICANDS)
    x = draw(series(radicand, lead=lead))
    if x.trunc is not None and draw(st.booleans()):
        return x, None
    return x, x.val() / 2 + draw(ORDERS)


LARGE_PRIMES = st.sampled_from([997, 1009, 7919])


@st.composite
def deep_sqrt_cases(draw):
    """Roots 30 to 60 lattice points deep, under leads and tails with
    large-prime denominators: a rational tail under a square or a
    non-square lead, or a tail over one radicand under a square lead."""
    p, r = draw(LARGE_PRIMES), draw(LARGE_PRIMES)
    lead = draw(st.sampled_from([F(p, r), F(p * p, r * r), F(4 * p * p, 9)]))
    radicand = draw(RADICANDS) if sqrt_exact(lead) is not None else None
    den = draw(st.sampled_from([1, 2, 3]))
    v = F(draw(st.integers(-6, 6)), den)
    pairs = [(v, lead)]
    for k in sorted({1} | set(draw(st.lists(st.integers(2, 12), max_size=4)))):
        c = F(draw(st.integers(-9, 9)) or 1, draw(LARGE_PRIMES))
        if radicand is not None and draw(st.booleans()):
            c = QuadExt.make(draw(st.sampled_from([F(0), c])), F(1, draw(LARGE_PRIMES)), radicand)
        pairs.append((v + F(k, den), c))
    points = draw(st.integers(30, 60))
    if draw(st.booleans()):
        return PuiseuxSeries.make(pairs, v + F(points, den)), None
    return PuiseuxSeries.make(pairs), v / 2 + F(points, den)


@st.composite
def quotient_cases(draw):
    radicand = draw(RADICANDS)
    num = draw(series_or_zero(radicand))
    den = draw(series(radicand))
    return num, den, inverse_order(draw, den)


@st.composite
def quadratic_cases(draw):
    radicand = draw(st.sampled_from([None, None, F(2)]))
    A = draw(series(radicand))
    if draw(st.integers(0, 4)) == 4:  # a double root: B = -2Ar, C = Ar^2, disc exactly 0
        r = PuiseuxSeries.make(draw(series(radicand)).terms)
        A = PuiseuxSeries.make(A.terms)
        B, C = scale_series(A * r, F(-2)), A * r * r
    else:
        B = draw(series_or_zero(radicand))
        C = draw(series_or_zero(radicand))
        if C.terms and A.lead_sign() == C.lead_sign() and draw(st.booleans()):
            C = -C  # -4AC leads positive three times in four
    va = A.val()
    trunc = -va + draw(ORDERS) + draw(st.integers(-2, 4))
    if A.trunc is not None:
        trunc = min(trunc, A.trunc - 2 * va)
    disc = B * B - 4 * A * C
    if disc.terms and disc.trunc is not None:
        trunc = min(trunc, disc.trunc - disc.val() / 2)
    return A, B, C, trunc


@st.composite
def lift_quadratics(draw):
    """A, B, C of the symmetric solve: on a symmetric 3 x 3 or 4 x 4 matrix
    of monomials with entries (i, j) and (j, i) zeroed, minus the minor
    without rows and columns i and j, twice the signed cofactor of (i, j),
    and the determinant, all exact and rational; the order is
    default_truncation of the valuations, or one up to 5 past the root's
    lead."""
    n = draw(st.integers(3, 4))
    vals = [[0] * n for _ in range(n)]
    mat = [[None] * n for _ in range(n)]
    for r in range(n):
        for c in range(r, n):
            vals[r][c] = vals[c][r] = F(draw(st.integers(0, 8)), draw(st.sampled_from([1, 1, 2])))
            mat[r][c] = mat[c][r] = PuiseuxSeries.monomial(draw(RATIONALS), vals[r][c])
    i, j = draw(st.permutations(range(n)))[:2]
    mat[i][j] = mat[j][i] = PuiseuxSeries.zero()
    rest = [r for r in range(n) if r not in (i, j)]
    A = -series_det(mat, rest, rest)
    B = series_det(mat, [r for r in range(n) if r != i], [c for c in range(n) if c != j])
    B = scale_series(B, F(-2 if (i + j) % 2 else 2))
    C = series_det(mat)
    if draw(st.booleans()):
        return A, B, C, default_truncation(TropMatrix.make(vals, symmetric=True))
    disc = B * B - 4 * A * C
    return A, B, C, (disc.val() or 0) / 2 + draw(ORDERS)


SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# --- differential tests ---------------------------------------------------


@SETTINGS
@given(inverse_cases())
def test_inverse_matches_power_sum(case):
    x, asked = case
    v, c = x.terms[0]
    trunc = supported(asked, x, 2 * v)
    want = outcome(ref_ps_inv, x, trunc)
    got = outcome(ps_inv, x, asked)
    if want is TailPastOrder:
        order = x.trunc - 2 * v if trunc is None else trunc
        want = lead_only(-v, 1 / c if type(c) is F else c.inverse(), order)
    assert got == want


@SETTINGS
@given(sqrt_cases())
def test_square_root_matches_power_sum(case):
    x, asked = case
    v, c = x.terms[0]
    trunc = supported(asked, x, v / 2)
    want = outcome(ref_ps_sqrt, x, trunc)
    got = outcome(ps_sqrt, x, asked)
    if want is TailPastOrder:
        order = x.trunc - v / 2 if trunc is None else trunc
        root = sqrt_exact(c) or QuadExt(F(0), F(1), c)
        want = lead_only(v / 2, root, order)
    assert got == want


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(deep_sqrt_cases())
def test_deep_square_root_matches_power_sum(case):
    x, asked = case
    trunc = supported(asked, x, x.val() / 2)
    assert outcome(ps_sqrt, x, asked) == outcome(ref_ps_sqrt, x, trunc)


@SETTINGS
@given(quotient_cases())
def test_quotient_matches_product_with_inverse(case):
    num, den, trunc = case
    try:
        inv = ref_ps_inv(den, supported(trunc, den, 2 * den.val()))
    except TailPastOrder:
        assume(False)
    assert outcome(ps_div, num, den, trunc) == outcome(lambda: num * inv)


@SETTINGS
@given(quadratic_cases())
def test_quadratic_roots_match_product_form(case):
    A, B, C, trunc = case
    want = outcome(ref_quad_roots, A, B, C, trunc)
    assume(want is not TailPastOrder)
    assert outcome(quad_roots, A, B, C, trunc) == want



@SETTINGS
@given(quadratic_cases())
def test_quadratic_numerators_match_the_series_arithmetic(case):
    """quad_numerators on quad_ints gives the series arithmetic's numerators,
    orders and errors: truncated inputs, a radicand tail, an exactly zero or
    one-term discriminant, B = 0."""
    A, B, C, trunc = case
    assert outcome(quad_numerators, A, B, C, trunc) == outcome(ref_quad_numerators, A, B, C, trunc)


@SETTINGS
@given(lift_quadratics())
def test_lift_quadratic_numerators_match_the_series_arithmetic(case):
    A, B, C, trunc = case
    assert outcome(quad_numerators, A, B, C, trunc) == outcome(ref_quad_numerators, A, B, C, trunc)


def test_numerators_over_two_radicands_match_the_series_arithmetic():
    """B over sqrt(2) under a root over sqrt(3): the numerators hold both
    radicands where no two terms meet, and a meeting raises."""
    one, sqrt2 = PuiseuxSeries.constant(F(1)), QuadExt.make(0, 1, 2)
    for B, C in (
        (PuiseuxSeries.monomial(sqrt2, 3), PuiseuxSeries.constant(F(-3, 4))),
        (PuiseuxSeries.monomial(sqrt2, 0), PuiseuxSeries.constant(F(-1, 4))),
    ):
        for trunc in (None, F(3), F(10)):
            want = outcome(ref_quad_numerators, one, B, C, trunc)
            assert outcome(quad_numerators, one, B, C, trunc) == want
