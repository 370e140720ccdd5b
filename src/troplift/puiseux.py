"""Truncated Puiseux series with exact rational exponents and coefficients.

A series is a sorted tuple of (exponent, coefficient) pairs with rational
exponents and Fraction or QuadExt coefficients, plus a truncation order:
the series is exact below that exponent and unknown at or above it.  A
truncation of None means the series is exact everywhere (a finite sum).

Sums and products of exact series stay exact.  Quotients, inverses and
square roots run coefficient recurrences on the lattice t^(1/D) that holds
the exponents (Knuth, TAOCP vol. 2, 4.7): a quotient divides term by term,
and a square root s of 1 + u solves 2 s_m = u_m - sum_{0<i<m} s_i s_{m-i}.
The square root runs on integer numerators over powers of 4q, q the common
denominator of u, with its coefficients on quadext's integer lattice
(to_lattice in, from_lattice out).
They return a truncated series unless the divisor or radicand is an exact
monomial; callers choose the order, with a depth of 20 past the valuation
as the default, and an order beyond what a truncated input determines is
clamped to that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import InversionOfZero, NegativeLeading, NestedRadical, ValuationUnknown
from .quadext import (
    QuadExt,
    coeff_is_zero,
    coeff_radicand,
    coeff_sign,
    from_lattice,
    sqrt_exact,
    to_lattice,
)

DEFAULT_DEPTH = Fraction(20)
ZERO, ONE = Fraction(0), Fraction(1)


def _fold(c):
    """Collapse rational QuadExt values to plain Fractions."""
    if type(c) is Fraction:
        return c
    if isinstance(c, QuadExt):
        if c.b == 0:
            return c.a
        return c
    return Fraction(c)


@dataclass(frozen=True)
class PuiseuxSeries:
    terms: tuple  # ((Fraction exponent, Fraction | QuadExt coefficient), ...)
    trunc: Fraction | None = None  # exact below this exponent; None = exact series

    @staticmethod
    def make(pairs, trunc=None) -> "PuiseuxSeries":
        """Normalize: merge exponents, drop zeros and terms at/above trunc.

        Terms merge on the exponent's (numerator, denominator) and sort on
        integer keys over a common denominator, so no Fraction is hashed,
        compared or rebuilt; sums of folded coefficients stay folded.
        """
        if trunc is not None and type(trunc) is not Fraction:
            trunc = Fraction(trunc)
        acc: dict[tuple, list] = {}
        for exp, coeff in pairs:
            key = exp.as_integer_ratio()
            hit = acc.get(key)
            if hit is None:
                acc[key] = [exp, _fold(coeff)]
            else:
                hit[1] = hit[1] + _fold(coeff)
        if trunc is not None:
            tn, td = trunc.as_integer_ratio()
        kept = [
            (num, den, exp, coeff)
            for (num, den), (exp, coeff) in acc.items()
            if not coeff_is_zero(coeff) and (trunc is None or num * td < tn * den)
        ]
        if len(kept) > 1:
            common = lcm(*{den for _, den, _, _ in kept})
            kept.sort(key=lambda k: k[0] * (common // k[1]))
        out = tuple(
            (exp if type(exp) is Fraction else Fraction(exp), coeff)
            for _, _, exp, coeff in kept
        )
        return PuiseuxSeries(out, trunc)

    @staticmethod
    def monomial(coeff, exp, trunc=None) -> "PuiseuxSeries":
        return PuiseuxSeries.make([(Fraction(exp), coeff)], trunc)

    @staticmethod
    def constant(coeff) -> "PuiseuxSeries":
        return PuiseuxSeries.make([(Fraction(0), coeff)])

    @staticmethod
    def zero() -> "PuiseuxSeries":
        return PuiseuxSeries((), None)

    def is_known_zero(self) -> bool:
        """No known terms (exactly zero when also untruncated)."""
        return not self.terms

    def _low(self) -> Fraction | None:
        """Lowest known exponent, or None when no terms are known."""
        return self.terms[0][0] if self.terms else None

    def val(self) -> Fraction | None:
        """Valuation: smallest exponent with a nonzero coefficient.

        Returns None (plus infinity) for the exact zero series and raises
        ValuationUnknown when the series has no known terms but is only
        known up to a finite order.
        """
        if self.terms:
            return self.terms[0][0]
        if self.trunc is None:
            return None
        raise ValuationUnknown(
            f"series is zero below truncation order {self.trunc}; valuation unknown"
        )

    def lead_coeff(self):
        if not self.terms:
            raise ValuationUnknown("series has no known nonzero term")
        return self.terms[0][1]

    def lead_sign(self) -> int:
        return coeff_sign(self.lead_coeff())

    def radicand(self) -> Fraction | None:
        """The single radicand used by the coefficients, or None."""
        for _, c in self.terms:
            d = coeff_radicand(c)
            if d is not None:
                return d
        return None

    def __add__(self, other):
        if not isinstance(other, PuiseuxSeries):
            other = PuiseuxSeries.constant(other)
        trunc = _min_trunc(self.trunc, other.trunc)
        return PuiseuxSeries.make(self.terms + other.terms, trunc)

    __radd__ = __add__

    def __neg__(self):
        return PuiseuxSeries(tuple((e, _fold(-c)) for e, c in self.terms), self.trunc)

    def __sub__(self, other):
        if not isinstance(other, PuiseuxSeries):
            other = PuiseuxSeries.constant(other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, PuiseuxSeries):
            other = PuiseuxSeries.constant(other)
        trunc = _prod_trunc(self, other)
        pairs = []
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                if trunc is not None and e >= trunc:
                    continue
                pairs.append((e, c1 * c2))
        return PuiseuxSeries.make(pairs, trunc)

    __rmul__ = __mul__

    def shift(self, exp) -> "PuiseuxSeries":
        """Multiply by the monomial t**exp."""
        exp = Fraction(exp)
        trunc = None if self.trunc is None else self.trunc + exp
        return PuiseuxSeries(tuple((e + exp, c) for e, c in self.terms), trunc)

    def scale(self, coeff) -> "PuiseuxSeries":
        return PuiseuxSeries.make(((e, c * coeff) for e, c in self.terms), self.trunc)

    def __repr__(self):
        if not self.terms:
            body = "0"
        else:
            body = " + ".join(f"{c}*t^{e}" for e, c in self.terms)
        tail = "" if self.trunc is None else f" + O(t^{self.trunc})"
        return f"<{body}{tail}>"


def _min_trunc(a: Fraction | None, b: Fraction | None) -> Fraction | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _prod_trunc(x: PuiseuxSeries, y: PuiseuxSeries) -> Fraction | None:
    """Order below which a product is known exactly."""
    cands = []
    for a, b in ((x, y), (y, x)):
        if a.trunc is None:
            continue
        lb = b._low()
        if lb is None:
            if b.trunc is None:
                continue  # exact zero absorbs the unknown tail
            lb = b.trunc
        cands.append(a.trunc + lb)
    return min(cands) if cands else None


def _scaled(e: Fraction, den: int) -> int:
    """Numerator of e over the denominator den, a multiple of e's own."""
    return e.numerator * (den // e.denominator)


def _grid(*groups):
    """Put each (base, terms) group on one lattice above its base.

    Returns (den, step, indices).  Every exponent e of a group sits at index
    (e - base) * D for D = den // step, the lcm of the denominators of all
    e - base, so index m above a base b is the exponent
    (b*den + m*step) / den.
    """
    den = lcm(
        *(b.denominator for b, _ in groups),
        *(e.denominator for _, ts in groups for e, _ in ts),
    )
    offsets = [[_scaled(e, den) - _scaled(b, den) for e, _ in ts] for b, ts in groups]
    step = gcd(den, *(d for offs in offsets for d in offs))
    return den, step, [[d // step for d in offs] for offs in offsets]


def _count_below(order: Fraction, low: int, den: int, step: int) -> int:
    """How many lattice points (low + m*step) / den with m >= 0 lie below order."""
    p, q = order.as_integer_ratio()
    return max(0, -((low * q - p * den) // (step * q)))


def _result_order(x: PuiseuxSeries, trunc, shift: Fraction, lead: Fraction) -> Fraction:
    """Order of an inverse or root of x whose lead exponent is `lead`.

    A truncated x determines the result below x.trunc - shift: that is the
    default, and an explicit `trunc` is clamped to it.  For an exact x the
    default sits DEFAULT_DEPTH past the lead.
    """
    if x.trunc is not None:
        bound = x.trunc - shift
        return bound if trunc is None else min(Fraction(trunc), bound)
    return lead + DEFAULT_DEPTH if trunc is None else Fraction(trunc)


def ps_div(x: PuiseuxSeries, y: PuiseuxSeries, trunc=None) -> PuiseuxSeries:
    """Quotient x / y, with the order of the product of x and 1/y known below
    `trunc` (see ps_inv for the default and the clamp).

    On the lattice t^(1/D) above the lowest exponents of x and y, the
    quotient q of the numerator n by the divisor w follows
    q_m = (n_m - sum_{i>=1} w_i q_{m-i}) / w_0, so M quotient terms cost
    M * len(y.terms) coefficient products.
    """
    if y.is_known_zero():
        raise InversionOfZero("no known nonzero term to invert on")
    v, lead = y.terms[0]
    exact = y.trunc is None and len(y.terms) == 1
    inv_order = None if exact else _result_order(y, trunc, 2 * v, -v)
    # the lead term and order of ps_inv(y) are all _prod_trunc reads of it
    inv_lead = ((-v, ONE),) if inv_order is None or -v < inv_order else ()
    order = _prod_trunc(x, PuiseuxSeries(inv_lead, inv_order))
    if not x.terms:
        return PuiseuxSeries((), order)
    den, step, (nidx, widx) = _grid((x.terms[0][0], x.terms), (v, y.terms))
    low = _scaled(x.terms[0][0], den) - _scaled(v, den)
    count = nidx[-1] + 1 if order is None else _count_below(order, low, den, step)
    winv = lead.inverse() if isinstance(lead, QuadExt) else ONE / lead
    num = dict(zip(nidx, (c for _, c in x.terms)))
    divisor = [(i, c) for i, (_, c) in zip(widx[1:], y.terms[1:]) if i < count]
    q = []
    for m in range(count):
        acc = num.get(m, ZERO)
        for i, w in divisor:
            if i > m:
                break
            prev = q[m - i]
            if prev:
                acc = acc - w * prev
        q.append(acc * winv if acc else ZERO)
    terms = tuple((Fraction(low + m * step, den), _fold(c)) for m, c in enumerate(q) if c)
    return PuiseuxSeries(terms, order)


def ps_inv(x: PuiseuxSeries, trunc=None) -> PuiseuxSeries:
    """Inverse, the quotient 1 / x of ps_div.

    The result is exact below `trunc`; when omitted, the order keeps the
    relative precision of x, or uses -val + DEFAULT_DEPTH for exact inputs.
    A truncated x determines its inverse only below x.trunc - 2 val, and a
    larger `trunc` is clamped to that.  The inverse of an exact monomial is
    exact.
    """
    return ps_div(PuiseuxSeries.constant(ONE), x, trunc)


def ps_sqrt(x: PuiseuxSeries, trunc=None) -> PuiseuxSeries:
    """Square root with a positive leading coefficient.

    The leading coefficient of the result is exact when lead(x) is a
    rational square and otherwise a QuadExt with radicand lead(x); in the
    latter case the input must be rational throughout, since two
    independent radicands are unsupported.  Under a rational square lead
    the tail may carry one radicand; quadext.to_lattice refuses two.

    With x = c t^v (1 + u), the root is sqrt(c) t^(v/2) s, and on the
    lattice t^(1/D) that holds u, s_0 = 1 and
    s_m = (u_m - sum_{0<i<m} s_i s_{m-i}) / 2.  The recurrence runs on
    integer numerators: with q the common denominator of u and U_m = q u_m,
    s_m = S_m / (4q)^m, where S_0 = 1 and
    S_m = 2^(2m-1) q^(m-1) U_m - sum_{0<i<m/2} S_i S_{m-i} - S_{m/2}^2 / 2,
    the last term for even m only.  Every S_m with m >= 1 is even, so the
    halving is exact.  The tail sits on quadext's coefficient lattice, a
    tail over sqrt(p/r) as integer pairs over sqrt(pr), and
    quadext.from_lattice builds each output coefficient.  The result is
    exact below `trunc`, by default x.trunc - v/2 for a truncated x and v/2 +
    DEFAULT_DEPTH for an exact one; a larger `trunc` than x.trunc - v/2 is
    clamped to it.  The root of an exact monomial is exact.
    """
    if x.is_known_zero():
        if x.trunc is None:
            return PuiseuxSeries.zero()
        raise ValuationUnknown("square root of a series with unknown valuation")
    v, c = x.terms[0]
    if coeff_sign(c) < 0:
        raise NegativeLeading(f"leading coefficient {c} is negative")
    if isinstance(c, QuadExt):
        raise NestedRadical("leading coefficient already carries a radicand")
    root = sqrt_exact(c)
    if root is None:
        if x.radicand() is not None:
            raise NestedRadical("series coefficients already carry a radicand")
        root = QuadExt(ZERO, ONE, c)
    if x.trunc is None and len(x.terms) == 1:
        return PuiseuxSeries.monomial(root, v / 2)
    trunc = _result_order(x, trunc, v / 2, v / 2)
    den, step, (idx,) = _grid((v, x.terms))
    # root exponents v/2 + m*step/den, over the denominator 2*den
    low = _scaled(v, den)
    count = _count_below(trunc, low, 2 * den, 2 * step)
    tail = [(m, coeff) for m, (_, coeff) in zip(idx[1:], x.terms[1:]) if m < count]
    # the tail on the coefficient lattice: coeff = (A + B sqrt(pr)) / D for
    # a radicand p/r, so that u_m = coeff / c = (A + B sqrt(pr)) c_den / (D c_num)
    radicand, ((coef_den, pairs),) = to_lattice([[coeff for _, coeff in tail]])
    root_sq = 0 if radicand is None else radicand.numerator * radicand.denominator
    cn, cd = c.numerator, c.denominator
    ua, ub = [0] * count, [0] * count
    for (m, _), (a, b) in zip(tail, pairs):
        ua[m] = a * cd
        ub[m] = b * cd
    q = coef_den * cn
    g = gcd(q, *ua, *ub)
    if g > 1:
        q //= g
        ua = [a // g for a in ua]
        ub = [b // g for b in ub]
    four_q = 4 * q
    sa, sb = [1], [0]  # S_m = sa[m] + sb[m] sqrt(pr)
    power = 2  # 2^(2m-1) q^(m-1)
    for m in range(1, count):
        h = (m + 1) // 2
        a = power * ua[m] - sum(map(mul, sa[1:h], sa[m - 1 : m - h : -1]))
        b = power * ub[m]
        if root_sq:
            a -= root_sq * sum(map(mul, sb[1:h], sb[m - 1 : m - h : -1]))
            b -= sum(map(mul, sa[1:h], sb[m - 1 : m - h : -1]))
            b -= sum(map(mul, sb[1:h], sa[m - 1 : m - h : -1]))
        if not m & 1:
            ha, hb = sa[m >> 1], sb[m >> 1]
            a -= (ha * ha + root_sq * hb * hb) >> 1
            b -= ha * hb
        sa.append(a)
        sb.append(b)
        power *= four_q
    # s_m sqrt(c) is (sa[m] + sb[m] sqrt(pr)) rn / (rd (4q)^m) for a rational
    # root rn / rd; an irrational root sqrt(c) has a rational tail, so it is
    # the lattice pair (0, sa[m]) over c_den (4q)^m with the radicand c
    rational = type(root) is Fraction
    rn, scale = root.as_integer_ratio() if rational else (1, cd)
    terms = []
    for m in range(count):
        a, b = sa[m], sb[m]
        if a or b:
            if rational:
                coeff = from_lattice(a * rn, b * rn, scale, radicand)
            else:
                coeff = from_lattice(0, a, scale, c)
            terms.append((Fraction(low + 2 * m * step, 2 * den), coeff))
        scale *= four_q
    return PuiseuxSeries(tuple(terms), trunc)


def quad_numerators(A: PuiseuxSeries, B: PuiseuxSeries, C: PuiseuxSeries, trunc=None):
    """Numerators of the roots of A x^2 + B x + C over real Puiseux series.

    Returns (n1, n2, 2A, disc_sign): the roots are n1 / 2A and n2 / 2A.
    n1 = -B + eps sqrt(disc) takes the square-root branch whose leading
    term matches the sign of -B, so no leading-term cancellation occurs in
    it; n2 = -B - eps sqrt(disc) takes the other branch, where any
    cancellation resolves exactly.  disc_sign < 0 means no real roots and
    both numerators are None; disc_sign == 0 (an exactly zero
    discriminant) gives n1 = n2 = -B.  `trunc` goes to ps_sqrt for the
    root of the discriminant.
    """
    if A.is_known_zero():
        if A.trunc is None:
            raise InversionOfZero("leading coefficient is exactly zero")
        raise ValuationUnknown("leading coefficient has unknown valuation")
    disc = B * B - 4 * A * C
    two_a = A.scale(Fraction(2))
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
    neg_b, root = -B, sq.scale(Fraction(eps))
    return neg_b + root, neg_b - root, two_a, 1


def quad_roots(A: PuiseuxSeries, B: PuiseuxSeries, C: PuiseuxSeries, trunc=None):
    """Roots of A x^2 + B x + C over real Puiseux series.

    Returns (x1, x2, disc_sign): the numerators of quad_numerators, each
    divided by 2A with ps_div at `trunc`.  disc_sign < 0 means no real
    roots and both root slots are None; for an exactly zero discriminant
    x1 and x2 are one series.
    """
    n1, n2, two_a, sign = quad_numerators(A, B, C, trunc)
    if sign < 0:
        return None, None, -1
    x1 = ps_div(n1, two_a, trunc)
    x2 = x1 if sign == 0 else ps_div(n2, two_a, trunc)
    return x1, x2, sign
