"""Truncated Puiseux series with exact rational exponents and coefficients.

A series is a sorted tuple of (exponent, coefficient) pairs with rational
exponents and Fraction or QuadExt coefficients, plus a truncation order:
the series is exact below that exponent and unknown at or above it.  A
truncation of None means the series is exact everywhere (a finite sum).

Sums and products of exact series stay exact.  Inversion and square roots
expand a geometric or binomial tail and therefore always return a truncated
series; callers choose the order, with a depth of 20 past the valuation as
the default.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import InversionOfZero, NegativeLeading, NestedRadical, ValuationUnknown
from .quadext import QuadExt, coeff_is_zero, coeff_radicand, coeff_sign, sqrt_exact

DEFAULT_DEPTH = Fraction(20)


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

    def is_exact(self) -> bool:
        return self.trunc is None

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

    def __pow__(self, n: int) -> "PuiseuxSeries":
        if n < 0:
            raise ValueError("negative powers go through ps_inv")
        out = PuiseuxSeries.constant(Fraction(1))
        for _ in range(n):
            out = out * self
        return out

    def truncate(self, trunc) -> "PuiseuxSeries":
        return PuiseuxSeries.make(self.terms, _min_trunc(self.trunc, Fraction(trunc)))

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


def ps_add(x: PuiseuxSeries, y: PuiseuxSeries) -> PuiseuxSeries:
    return x + y


def ps_neg(x: PuiseuxSeries) -> PuiseuxSeries:
    return -x


def ps_mul(x: PuiseuxSeries, y: PuiseuxSeries) -> PuiseuxSeries:
    return x * y


def ps_val(x: PuiseuxSeries) -> Fraction | None:
    return x.val()


def ps_lead_sign(x: PuiseuxSeries) -> int:
    return x.lead_sign()


def ps_inv(x: PuiseuxSeries, trunc=None) -> PuiseuxSeries:
    """Inverse via geometric expansion of the tail.

    The result is exact below `trunc`; when omitted, the order keeps the
    relative precision of x, or uses -val + DEFAULT_DEPTH for exact inputs.
    """
    if x.is_known_zero():
        raise InversionOfZero("no known nonzero term to invert on")
    v = x.val()
    c = x.lead_coeff()
    cinv = c.inverse() if isinstance(c, QuadExt) else Fraction(1) / c
    # unit = x / (c t^v) = 1 + u with val(u) > 0
    unit = x.shift(-v).scale(cinv)
    u = unit - PuiseuxSeries.constant(Fraction(1))
    if u.is_known_zero() and x.trunc is None:
        return PuiseuxSeries.monomial(cinv, -v)
    if trunc is None:
        trunc = (x.trunc - 2 * v) if x.trunc is not None else (-v + DEFAULT_DEPTH)
    trunc = Fraction(trunc)
    rel = trunc + v  # required order for the inverse of the unit part
    acc = PuiseuxSeries.make([(Fraction(0), Fraction(1))], rel)
    if not u.is_known_zero():
        power = PuiseuxSeries.make(u.terms, rel)
        uval = power.val()
        k = 1
        while k * uval < rel and not power.is_known_zero():
            acc = acc + power.scale(Fraction((-1) ** k))
            power = PuiseuxSeries.make((power * u).terms, rel)
            k += 1
    return acc.scale(cinv).shift(-v)


def ps_div(x: PuiseuxSeries, y: PuiseuxSeries, trunc=None) -> PuiseuxSeries:
    return x * ps_inv(y, trunc=trunc)


def _binomial_half(k: int) -> Fraction:
    """Binomial coefficient C(1/2, k)."""
    out = Fraction(1)
    top = Fraction(1, 2)
    for i in range(k):
        out *= (top - i) / (i + 1)
    return out


def ps_sqrt(x: PuiseuxSeries, trunc=None) -> PuiseuxSeries:
    """Square root with a positive leading coefficient.

    The leading coefficient of the result is exact when lead(x) is a
    rational square and otherwise a QuadExt with radicand lead(x); in the
    latter case the input must be rational throughout, since two
    independent radicands are unsupported.
    """
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
        if x.radicand() is not None:
            raise NestedRadical("series coefficients already carry a radicand")
        root = QuadExt(Fraction(0), Fraction(1), c)
    unit = x.shift(-v).scale(Fraction(1) / c)
    u = unit - PuiseuxSeries.constant(Fraction(1))
    if u.is_known_zero() and u.trunc is None:
        return PuiseuxSeries.monomial(root, v / 2)
    if trunc is None:
        trunc = (x.trunc - v / 2) if x.trunc is not None else (v / 2 + DEFAULT_DEPTH)
    trunc = Fraction(trunc)
    rel = trunc - v / 2  # order needed for sqrt(1 + u)
    acc = PuiseuxSeries.make([(Fraction(0), Fraction(1))], rel)
    if not u.is_known_zero():
        power = PuiseuxSeries.make(u.terms, rel)
        uval = power.val()
        k = 1
        while k * uval < rel and not power.is_known_zero():
            acc = acc + power.scale(_binomial_half(k))
            power = PuiseuxSeries.make((power * u).terms, rel)
            k += 1
    return acc.scale(root).shift(v / 2)


def ps_eq_to_trunc(x: PuiseuxSeries, y: PuiseuxSeries) -> bool:
    """True when x - y has no known nonzero term."""
    return (x - y).is_known_zero()


def quad_roots(A: PuiseuxSeries, B: PuiseuxSeries, C: PuiseuxSeries, trunc=None):
    """Roots of A x^2 + B x + C over real Puiseux series.

    Returns (x1, x2, disc_sign).  x1 uses the square-root branch whose
    leading term matches the sign of -B, so no leading-term cancellation
    occurs in its numerator; x2 takes the other branch, where any
    cancellation resolves exactly.  disc_sign < 0 means no real roots and
    both root slots are None.
    """
    if A.is_known_zero():
        if A.trunc is None:
            raise InversionOfZero("leading coefficient is exactly zero")
        raise ValuationUnknown("leading coefficient has unknown valuation")
    disc = B * B - 4 * A * C
    if disc.is_known_zero():
        if disc.trunc is None:
            x = (-B) * ps_inv(A.scale(Fraction(2)), trunc=trunc)
            return x, x, 0
        raise ValuationUnknown("discriminant vanishes below its truncation order")
    sign = disc.lead_sign()
    if sign < 0:
        return None, None, -1
    sq = ps_sqrt(disc, trunc=trunc)
    if B.is_known_zero():
        eps = 1
    else:
        eps = (-B).lead_sign() * sq.lead_sign()
    inv2a = ps_inv(A.scale(Fraction(2)), trunc=trunc)
    x1 = ((-B) + sq.scale(Fraction(eps))) * inv2a
    x2 = ((-B) - sq.scale(Fraction(eps))) * inv2a
    return x1, x2, 1
