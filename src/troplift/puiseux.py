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

Two kernels run on ints only: _root_recurrence, the square root's
recurrence, and quad_ints, the numerators -B +- eps sqrt(B^2 - 4AC) of a
quadratic's roots.  quad_ints takes A, B and C as the integer grid
terms that verify.minor_ints reads off a matrix, forms the discriminant
over one denominator, runs _root_recurrence and returns integer term
lists, which lattice_series turns into series.  ps_sqrt and quad_ints
share the recurrence; quad_numerators, and through it quad_roots, puts
series on the lattice and runs quad_ints, and the symmetric singular
lift calls quad_ints on its matrix's grid directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf, isqrt, lcm
from operator import mul
from typing import NamedTuple

from .errors import (
    InversionOfZero,
    NegativeLeading,
    NestedRadical,
    RadicandMismatch,
    ValuationUnknown,
)
from .quadext import (
    QuadExt,
    coeff_is_zero,
    coeff_sign,
    from_lattice,
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


def _root_recurrence(ua: list, ub: list, q: int, root_sq: int, count: int) -> tuple:
    """The integer square-root recurrence of ps_sqrt, for count terms.

    u_m = (ua[m] + ub[m] sqrt(pr)) / q for m >= 1 (ua[0] and ub[0] are not
    read), with pr = root_sq (0 without a radicand).  Returns (sa, sb, 4q')
    with s_m = (sa[m] + sb[m] sqrt(pr)) / (4q')^m the terms of the root s of
    1 + u, s_0 = 1, where q' is q over the gcd of q and the u_m numerators.
    """
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
    return sa, sb, four_q


def _root_ints(ints: dict, den: int, known, exp_den: int, radicand, trunc) -> tuple:
    """The square root of a series on the integer grid (see quad_ints),
    with a positive leading coefficient: its term list (see QuadInts), with
    exponents over 2 exp_den, and its order, None for the exact root of an
    exact monomial.  Checks, order and recurrence are those of ps_sqrt."""
    v = min(ints) >> 1
    if ints.get(2 * v + 1):
        raise NestedRadical("leading coefficient already carries a radicand")
    g = gcd(ints[2 * v], den)
    cn, cd = ints[2 * v] // g, den // g
    rn, rd = isqrt(cn), isqrt(cd)
    rational = rn * rn == cn and rd * rd == cd
    if not rational and any(key & 1 for key in ints):
        raise NestedRadical("series coefficients already carry a radicand")
    c = None if rational else Fraction(cn, cd)
    if known is None and len(ints) == 1:
        return [(v, rn, 0, rd, None) if rational else (v, 0, 1, cd, c)], None
    scale = 2 * exp_den
    if known is not None:
        bound = Fraction(2 * known - v, scale)
        order = bound if trunc is None else min(Fraction(trunc), bound)
    else:
        order = Fraction(v, scale) + DEFAULT_DEPTH if trunc is None else Fraction(trunc)
    # root exponents v/2 + m step / exp_den, that is (v + 2 m step) / scale
    step = gcd(exp_den, *((key >> 1) - v for key in ints))
    count = _count_below(order, v, scale, 2 * step)
    # u_m = coeff / c = (A + B sqrt(pr)) c_den / (den c_num)
    ua, ub = [0] * count, [0] * count
    for key, x in ints.items():
        m = ((key >> 1) - v) // step
        if 0 < m < count:
            (ub if key & 1 else ua)[m] = x * cd
    root_sq = 0 if radicand is None else radicand.numerator * radicand.denominator
    sa, sb, four_q = _root_recurrence(ua, ub, den * cn, root_sq, count)
    # s_m sqrt(c) is (sa[m] + sb[m] sqrt(pr)) rn / (rd (4q)^m) for a rational
    # root rn / rd; an irrational root sqrt(c) has a rational tail, so it is
    # the lattice pair (0, sa[m]) over c_den (4q)^m with the radicand c
    root, below = [], rd if rational else cd
    for m in range(count):
        a, b = sa[m], sb[m]
        if a or b:
            e = v + 2 * m * step
            term = (e, a * rn, b * rn, below, radicand) if rational else (e, 0, a, below, c)
            root.append(term)
        below *= four_q
    return root, order


def _on_lattice(*series) -> tuple:
    """(exp_den, radicand, coefficients): the series on one integer grid,
    each as (ints, known, den), the form quad_ints takes; the coefficients
    go through quadext.to_lattice, which refuses two radicands."""
    exp_den = lcm(
        *(e.denominator for s in series for e, _ in s.terms),
        *(s.trunc.denominator for s in series if s.trunc is not None),
    )
    radicand, groups = to_lattice([[c for _, c in s.terms] for s in series])
    coeffs = []
    for s, (den, pairs) in zip(series, groups):
        ints = {}
        for (e, _), (a, b) in zip(s.terms, pairs):
            key = 2 * e.numerator * (exp_den // e.denominator)
            if a:
                ints[key] = a
            if b:
                ints[key + 1] = b
        known = None if s.trunc is None else s.trunc.numerator * (exp_den // s.trunc.denominator)
        coeffs.append((ints, known, den))
    return exp_den, radicand, coeffs


def lattice_series(terms: list, exp_den: int, trunc, shift: int = 0, sign: int = 1):
    """The series of a term list (see QuadInts) times sign t^(-shift / exp_den)."""
    out = tuple(
        (Fraction(e - shift, exp_den), from_lattice(sign * a, sign * b, den, rad))
        for e, a, b, den, rad in terms
    )
    if trunc is not None and shift:
        trunc -= Fraction(shift, exp_den)
    return PuiseuxSeries(out, trunc)


def ps_sqrt(x: PuiseuxSeries, trunc=None) -> PuiseuxSeries:
    """Square root with a positive leading coefficient.

    The leading coefficient of the result is exact when lead(x) is a
    rational square and otherwise a QuadExt with radicand lead(x); in the
    latter case the input must be rational throughout, since two
    independent radicands are unsupported.  Under a rational square lead
    the tail may carry one radicand; quadext.to_lattice refuses a series
    with two, before the root's own checks.

    With x = c t^v (1 + u), the root is sqrt(c) t^(v/2) s, and on the
    lattice t^(1/D) that holds u, s_0 = 1 and
    s_m = (u_m - sum_{0<i<m} s_i s_{m-i}) / 2.  The recurrence runs on
    integer numerators: with q the common denominator of u and U_m = q u_m,
    s_m = S_m / (4q)^m, where S_0 = 1 and
    S_m = 2^(2m-1) q^(m-1) U_m - sum_{0<i<m/2} S_i S_{m-i} - S_{m/2}^2 / 2,
    the last term for even m only.  Every S_m with m >= 1 is even, so the
    halving is exact.  x goes on the integer grid (_on_lattice), a tail
    over sqrt(p/r) as integer pairs over sqrt(pr), _root_ints runs the
    recurrence there (_root_recurrence), and quadext.from_lattice builds
    each output coefficient.  The result is exact below `trunc`, by
    default x.trunc - v/2 for a truncated x and v/2 + DEFAULT_DEPTH for an
    exact one; a larger `trunc` than x.trunc - v/2 is clamped to it.  The
    root of an exact monomial is exact.
    """
    if x.is_known_zero():
        if x.trunc is None:
            return PuiseuxSeries.zero()
        raise ValuationUnknown("square root of a series with unknown valuation")
    c = x.terms[0][1]
    if coeff_sign(c) < 0:
        raise NegativeLeading(f"leading coefficient {c} is negative")
    exp_den, radicand, ((ints, known, den),) = _on_lattice(x)
    root, order = _root_ints(ints, den, known, exp_den, radicand, trunc)
    return lattice_series(root, 2 * exp_den, order)


def pair_sign(a: int, b: int, radicand) -> int:
    """Sign of a coefficient (a + b sqrt(pr)) / den on quadext's lattice,
    den > 0, for the radicand p/r; read off a alone when b == 0."""
    if not b:
        return (a > 0) - (a < 0)
    return from_lattice(a, b, 1, radicand).sign()


class QuadInts(NamedTuple):
    """quad_ints' result.  A term list holds (e, a, b, den, radicand) by
    ascending e: the coefficient (a + b sqrt(pr)) / den, for the radicand
    p/r (quadext.from_lattice), at t^(e / exp_den); no coefficient is 0."""

    neg_b: list  # -B
    root: list  # sqrt(disc); empty unless sign > 0
    eps: int  # lead of eps sqrt(disc) has the sign of -B's (1 when B = 0)
    trunc: Fraction | None  # the numerators' order
    two_a: list
    two_a_trunc: Fraction | None
    exp_den: int  # of every term list's exponents, twice the grid's lattice
    sign: int  # of the discriminant's leading coefficient

    def numerator(self, branch: int) -> list:
        """The term list of -B + branch eps sqrt(disc): n1 for branch 1,
        n2 for -1, each made when it is asked for."""
        return _merge(self.neg_b, self.root, branch * self.eps, self.trunc, self.exp_den)


def _term_list(ints: dict, den: int, radicand, factor: int) -> list:
    """The term list (see QuadInts) of factor times grid ints over den,
    exponents over twice the grid's lattice."""
    parts: dict = {}
    for key, c in ints.items():
        parts.setdefault(key >> 1, [0, 0])[key & 1] = factor * c
    return [(2 * e, a, b, den, radicand) for e, (a, b) in sorted(parts.items())]


def _add_product(out: dict, x: dict, y: dict, factor: int, root_sq: int, cap) -> None:
    """Add factor x y to the grid ints out, keys at or above cap dropped.
    A key's exponent key >> 1 only grows along y's sorted keys."""
    ys = sorted(y.items())
    for k1, c1 in x.items():
        c1 *= factor
        for k2, c2 in ys:
            key = k1 + k2
            if k1 & k2 & 1:  # sqrt(pr) * sqrt(pr) = pr
                key -= 2
                c2 *= root_sq
            if key >= cap:
                break
            out[key] = out.get(key, 0) + c1 * c2


def _merge(x: list, y: list, sign: int, order, exp_den: int) -> list:
    """The term list of x + sign y, below order.  Two terms at one exponent
    that carry different radicands raise RadicandMismatch, as their sum in
    a series does."""
    out = {t[0]: t for t in x}
    for e, a, b, den, rad in y:
        a, b = sign * a, sign * b
        hit = out.get(e)
        if hit is None:
            out[e] = (e, a, b, den, rad)
            continue
        _, a1, b1, d1, r1 = hit
        if b1 and b and r1 != rad:
            raise RadicandMismatch(f"cannot mix sqrt({rad}) with sqrt({r1})")
        out[e] = (e, a1 * den + a * d1, b1 * den + b * d1, d1 * den, r1 if b1 else rad)
    p, q = (0, 0) if order is None else order.as_integer_ratio()
    return sorted(t for t in out.values() if (t[1] or t[2]) and (not q or t[0] * q < p * exp_den))


def quad_ints(A, B, C, exp_den: int, radicand, trunc=None) -> QuadInts:
    """The arithmetic of quad_numerators on integers, from the coefficients
    to the numerators.

    A, B and C are each (ints, known, den) as verify.minor_ints returns a
    minor: ints maps keys 2 e + r to ints, e an exponent over exp_den and
    r = 1 for a multiple of sqrt(pr) of the one radicand p/r (None when
    there is none); the series is ints over den, known only below the
    exponent known over exp_den (None when exact).  The discriminant
    B^2 - 4AC is formed over one common denominator, with the order and the
    dropped terms of the series product, and the sign of its leading
    coefficient is read off its leading int.  Its square root is ps_sqrt's
    on the grid (_root_ints), and QuadInts.numerator puts -B +- eps
    sqrt(disc) together term by term.  Errors are those of the series
    arithmetic.
    """
    (at, aknown, aden), (bt, bknown, bden), (ct, cknown, cden) = A, B, C
    if not at:
        if aknown is None:
            raise InversionOfZero("leading coefficient is exactly zero")
        raise ValuationUnknown("leading coefficient has unknown valuation")
    scale = 2 * exp_den
    two_a = _term_list(at, aden, radicand, 2)
    two_a_trunc = None if aknown is None else Fraction(aknown, exp_den)
    neg_b = _term_list(bt, bden, radicand, -1)
    b_trunc = None if bknown is None else Fraction(bknown, exp_den)
    # the order of B * B - (4 A) * C, as _prod_trunc gives it
    orders = []
    if bknown is not None:
        orders.append(bknown + (min(bt) >> 1 if bt else bknown))
    if aknown is not None and (ct or cknown is not None):
        orders.append(aknown + (min(ct) >> 1 if ct else cknown))
    if cknown is not None:
        orders.append(cknown + (min(at) >> 1))
    known = min(orders) if orders else None
    root_sq = 0 if radicand is None else radicand.numerator * radicand.denominator
    den = lcm(bden * bden, aden * cden)
    cap = inf if known is None else 2 * known
    disc: dict = {}
    _add_product(disc, bt, bt, den // (bden * bden), root_sq, cap)
    _add_product(disc, at, ct, -4 * (den // (aden * cden)), root_sq, cap)
    disc = {key: c for key, c in disc.items() if c}
    if not disc:
        if known is None:
            return QuadInts(neg_b, [], 1, b_trunc, two_a, two_a_trunc, scale, 0)
        raise ValuationUnknown("discriminant vanishes below its truncation order")
    v = min(disc) >> 1
    if pair_sign(disc.get(2 * v, 0), disc.get(2 * v + 1, 0), radicand) < 0:
        return QuadInts(neg_b, [], 1, None, two_a, two_a_trunc, scale, -1)
    root, order = _root_ints(disc, den, known, exp_den, radicand, trunc)
    if not bt:
        eps = 1
    else:
        _, a, b, _, _ = neg_b[0]
        eps = pair_sign(a, b, radicand)
        if not root:
            raise ValuationUnknown("series has no known nonzero term")
    return QuadInts(neg_b, root, eps, _min_trunc(b_trunc, order), two_a, two_a_trunc, scale, 1)


def quad_numerators(A: PuiseuxSeries, B: PuiseuxSeries, C: PuiseuxSeries, trunc=None):
    """Numerators of the roots of A x^2 + B x + C over real Puiseux series.

    Returns (n1, n2, 2A, disc_sign): the roots are n1 / 2A and n2 / 2A.
    n1 = -B + eps sqrt(disc) takes the square-root branch whose leading
    term matches the sign of -B, so no leading-term cancellation occurs in
    it; n2 = -B - eps sqrt(disc) takes the other branch, where any
    cancellation resolves exactly.  disc_sign < 0 means no real roots and
    both numerators are None; disc_sign == 0 (an exactly zero
    discriminant) gives n1 = n2 = -B.  `trunc` is the order of the root of
    the discriminant, as ps_sqrt takes it.  The coefficients go on one
    lattice (quadext.to_lattice, which refuses two radicands) and quad_ints
    does the arithmetic.
    """
    exp_den, radicand, coeffs = _on_lattice(A, B, C)
    q = quad_ints(*coeffs, exp_den, radicand, trunc)
    two_a = lattice_series(q.two_a, q.exp_den, q.two_a_trunc)
    if q.sign < 0:
        return None, None, two_a, -1
    n1, n2 = (lattice_series(q.numerator(b), q.exp_den, q.trunc) for b in (1, -1))
    return n1, n2, two_a, q.sign


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
