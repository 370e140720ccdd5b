"""Exact arithmetic in a quadratic extension of the rationals.

A QuadExt represents a + b*sqrt(d) with rational a, b and a fixed rational
radicand d that is not a perfect square.  Values with b == 0 collapse to
plain Fractions at construction, so series code can treat "Fraction or
QuadExt" as one coefficient domain.  Mixing two different radicands in one
computation is rejected: a certificate carries at most one square root.

Integer kernels (the series determinant, the square-root recurrence) work
on a coefficient lattice: to_lattice writes each coefficient of a group
as (A + B sqrt(pr)) / D, with D the group's common denominator and p/r
the one radicand, and from_lattice turns such a pair back into a Fraction
or a QuadExt.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm

from .errors import RadicandMismatch

ZERO = Fraction(0)


def sqrt_exact(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if q < 0:
        return None
    rn = isqrt(q.numerator)
    rd = isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _as_pair(value, d: Fraction) -> tuple[Fraction, Fraction]:
    """View a coefficient as (a, b) over sqrt(d)."""
    t = type(value)
    if t is Fraction:
        return value, ZERO
    if t is QuadExt or isinstance(value, QuadExt):
        if value.b != 0 and value.d != d:
            raise RadicandMismatch(f"cannot mix sqrt({value.d}) with sqrt({d})")
        return value.a, value.b
    return Fraction(value), ZERO


def _known(a: Fraction, b: Fraction, d: Fraction):
    """a + b*sqrt(d) for a radicand d already known not to be a square."""
    if b == 0:
        return a
    return QuadExt(a, b, d)


@dataclass(frozen=True)
class QuadExt:
    """a + b*sqrt(d), exact.  Use make() so rational values fold to Fraction.

    Arithmetic on existing values keeps their radicand, which make() has
    already found not to be a square, so results fold only when b == 0.
    """

    a: Fraction
    b: Fraction
    d: Fraction

    @staticmethod
    def make(a, b, d):
        """Build a + b*sqrt(d), returning a plain Fraction when possible."""
        a, b, d = Fraction(a), Fraction(b), Fraction(d)
        if b == 0:
            return a
        root = sqrt_exact(d)
        if root is not None:
            return a + b * root
        return QuadExt(a, b, d)

    def norm(self) -> Fraction:
        """Field norm a^2 - b^2 d (product with the conjugate)."""
        return self.a * self.a - self.b * self.b * self.d

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __add__(self, other):
        oa, ob = _as_pair(other, self.d)
        return _known(self.a + oa, self.b + ob if ob else self.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return _known(-self.a, -self.b, self.d)

    def __sub__(self, other):
        oa, ob = _as_pair(other, self.d)
        return _known(self.a - oa, self.b - ob if ob else self.b, self.d)

    def __rsub__(self, other):
        oa, ob = _as_pair(other, self.d)
        return _known(oa - self.a, ob - self.b, self.d)

    def __mul__(self, other):
        oa, ob = _as_pair(other, self.d)
        a, b = self.a, self.b
        if not ob:
            return _known(a * oa, b * oa, self.d)
        return _known(a * oa + b * ob * self.d, a * ob + b * oa, self.d)

    __rmul__ = __mul__

    def inverse(self):
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("quadratic-extension value has zero norm")
        return _known(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        if isinstance(other, QuadExt):
            return self * other.inverse()
        q = other if type(other) is Fraction else Fraction(other)
        return _known(self.a / q, self.b / q, self.d)

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            return (self.a, self.b, self.d) == (other.a, other.b, other.d)
        if self.b == 0:
            return self.a == other
        return False

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def sign(self) -> int:
        """Sign of a + b*sqrt(d) for d > 0, evaluated exactly."""
        if self.d <= 0:
            raise ValueError("sign is defined only for positive radicands")
        if self.b == 0:
            return -1 if self.a < 0 else (1 if self.a > 0 else 0)
        if self.a == 0:
            return 1 if self.b > 0 else -1
        if self.a > 0 and self.b > 0:
            return 1
        if self.a < 0 and self.b < 0:
            return -1
        # Opposite signs: compare a^2 against b^2 d.
        lhs = self.a * self.a
        rhs = self.b * self.b * self.d
        if lhs == rhs:
            return 0
        dominant_a = lhs > rhs
        if dominant_a:
            return 1 if self.a > 0 else -1
        return 1 if self.b > 0 else -1

    def __repr__(self):
        return f"({self.a} + {self.b}*sqrt({self.d}))"


def coeff_sign(c) -> int:
    """Sign of a Fraction or QuadExt coefficient."""
    if isinstance(c, QuadExt):
        return c.sign()
    return -1 if c < 0 else (1 if c > 0 else 0)


def coeff_is_zero(c) -> bool:
    if isinstance(c, QuadExt):
        return c.a == 0 and c.b == 0
    return c == 0


def to_lattice(groups):
    """Integer pairs for groups of Fraction or QuadExt coefficients.

    Returns (radicand, [(D, pairs), ...]), one entry per group: D is the
    least common denominator of the group and pairs[k] = (A, B) with
    coefficient k equal to (A + B sqrt(pr)) / D, where p/r is the one
    radicand of all groups (None, and every B zero, when they are
    rational).  A second radicand raises RadicandMismatch.  Each group is
    read twice, so it must be a sequence.
    """
    radicand, dens = None, []
    for group in groups:
        den = 1
        for c in group:
            if isinstance(c, QuadExt):
                if c.b and radicand is None:
                    radicand = c.d
                elif c.b and c.d != radicand:
                    raise RadicandMismatch(f"cannot mix sqrt({c.d}) with sqrt({radicand})")
                den = lcm(den, c.a.denominator, c.b.denominator * c.d.denominator)
            else:
                den = lcm(den, c.denominator)
        dens.append(den)
    root_den = 1 if radicand is None else radicand.denominator
    out = []
    for group, den in zip(groups, dens):
        pairs = []
        for c in group:
            if isinstance(c, QuadExt):
                a, b = c.a, c.b
                pairs.append(
                    (
                        a.numerator * (den // a.denominator),
                        b.numerator * (den // (b.denominator * root_den)),
                    )
                )
            else:
                pairs.append((c.numerator * (den // c.denominator), 0))
        out.append((den, pairs))
    return radicand, out


def from_lattice(a: int, b: int, den: int, radicand):
    """The coefficient (a + b sqrt(pr)) / den for the radicand p/r: a
    Fraction when b == 0 (radicand may then be None), else a QuadExt.  The
    radicand is one a QuadExt already carries, or one sqrt_exact has found
    not to be a square, so it is not tested again."""
    if not b:
        return Fraction(a, den)
    return QuadExt(Fraction(a, den) if a else ZERO, Fraction(b * radicand.denominator, den), radicand)
