"""Sparse multivariate polynomials over the rationals.

A polynomial maps exponent tuples (one integer per variable) to Fraction
coefficients; zero coefficients are never stored.  This is enough for the
symbolic determinant and discriminant identities the acceptance tests check, so
there is no term-order machinery beyond plain lexicographic comparisons.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from troplift.errors import TropliftError
from troplift.monomials import cycles_of


class NotQuadratic(TropliftError):
    """Polynomial is not quadratic in the requested variable."""


def perm_sign(sigma) -> int:
    """Sign of a permutation given as a tuple of images: each cycle of
    length k is k - 1 transpositions, so the sign is (-1)^(n - cycles)."""
    return -1 if (len(sigma) - len(cycles_of(sigma))) & 1 else 1


class MPoly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None, *, _clean=True):
        self.nvars = nvars
        if terms and _clean:
            self.terms = {e: Fraction(c) for e, c in terms.items() if c != 0}
        else:
            self.terms = terms or {}

    @staticmethod
    def const(nvars: int, value) -> "MPoly":
        value = Fraction(value)
        if value == 0:
            return MPoly(nvars)
        return MPoly(nvars, {(0,) * nvars: value}, _clean=False)

    @staticmethod
    def var(nvars: int, idx: int) -> "MPoly":
        exp = [0] * nvars
        exp[idx] = 1
        return MPoly(nvars, {tuple(exp): Fraction(1)}, _clean=False)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, MPoly):
            return self.nvars == other.nvars and self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items()))))

    def __add__(self, other):
        if not isinstance(other, MPoly):
            other = MPoly.const(self.nvars, other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return MPoly(self.nvars, out, _clean=False)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.nvars, {e: -c for e, c in self.terms.items()}, _clean=False)

    def __sub__(self, other):
        if not isinstance(other, MPoly):
            other = MPoly.const(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MPoly):
            other = MPoly.const(self.nvars, other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, Fraction(0)) + c1 * c2
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        return MPoly(self.nvars, out, _clean=False)

    __rmul__ = __mul__

    def degree_in(self, v: int) -> int:
        return max((e[v] for e in self.terms), default=0)

    def coeffs_in(self, v: int) -> dict[int, "MPoly"]:
        """Split into coefficients of powers of variable v."""
        out: dict[int, dict] = {}
        for e, c in self.terms.items():
            k = e[v]
            stripped = e[:v] + (0,) + e[v + 1 :]
            out.setdefault(k, {})[stripped] = c
        return {k: MPoly(self.nvars, t, _clean=False) for k, t in out.items()}

    def leading(self) -> tuple[tuple, Fraction]:
        e = max(self.terms)
        return e, self.terms[e]

    def min_degree_part(self, v: int) -> tuple[int, "MPoly"]:
        """Lowest power of variable v and its coefficient polynomial."""
        k = min(e[v] for e in self.terms)
        part = {e: c for e, c in self.terms.items() if e[v] == k}
        return k, MPoly(self.nvars, part, _clean=False)

    def __repr__(self):
        if not self.terms:
            return "MPoly(0)"
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(f"x{i}^{p}" for i, p in enumerate(e) if p)
            bits.append(f"{c}{'*' + mono if mono else ''}")
        return "MPoly(" + " + ".join(bits) + ")"


def mpoly_exact_div(p: MPoly, q: MPoly) -> MPoly:
    """Divide p by q assuming the division is exact."""
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    out: dict = {}
    rem = p
    qe, qc = q.leading()
    while not rem.is_zero():
        re, rc = rem.leading()
        de = tuple(a - b for a, b in zip(re, qe))
        if any(x < 0 for x in de):
            raise ArithmeticError("inexact polynomial division")
        coeff = rc / qc
        out[de] = out.get(de, Fraction(0)) + coeff
        rem = rem - MPoly(p.nvars, {de: coeff}, _clean=False) * q
    return MPoly(p.nvars, out)


def mpoly_det(matrix: list[list[MPoly]]) -> MPoly:
    """Exact symbolic determinant.

    Cofactor expansion up to 3x3; fraction-free Bareiss elimination above
    that to keep intermediate term growth polynomial.
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    nvars = matrix[0][0].nvars
    if n == 1:
        return matrix[0][0]
    if n == 2:
        a, b = matrix[0]
        c, d = matrix[1]
        return a * d - b * c
    if n == 3:
        out = MPoly.const(nvars, 0)
        for sigma in permutations(range(3)):
            sgn = perm_sign(sigma)
            term = MPoly.const(nvars, sgn)
            for i in range(3):
                term = term * matrix[i][sigma[i]]
            out = out + term
        return out
    return _bareiss_det(matrix)


def _bareiss_det(matrix: list[list[MPoly]]) -> MPoly:
    n = len(matrix)
    nvars = matrix[0][0].nvars
    m = [row[:] for row in matrix]
    sign = 1
    prev = MPoly.const(nvars, 1)
    for k in range(n - 1):
        if m[k][k].is_zero():
            for r in range(k + 1, n):
                if not m[r][k].is_zero():
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return MPoly.const(nvars, 0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = mpoly_exact_div(num, prev)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def mpoly_disc(p: MPoly, v: int) -> MPoly:
    """Discriminant B^2 - 4AC of p = A v^2 + B v + C."""
    if p.degree_in(v) != 2:
        raise NotQuadratic(f"degree in variable {v} is {p.degree_in(v)}, not 2")
    parts = p.coeffs_in(v)
    zero = MPoly.const(p.nvars, 0)
    a = parts.get(2, zero)
    b = parts.get(1, zero)
    c = parts.get(0, zero)
    return b * b - 4 * a * c


def sym_variable_index(n: int):
    """Index map for the upper-triangular variables of an n x n symmetric matrix."""
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    return {pair: k for k, pair in enumerate(pairs)}, pairs


def sym_matrix_polys(n: int, extra_vars: int = 0):
    """Symbolic symmetric n x n matrix; entry (i, j) is the variable m_{ij}.

    Returns (matrix, index_of_pair, nvars).  extra_vars appends additional
    variable slots (used for a series parameter t or solver unknowns).
    """
    index, pairs = sym_variable_index(n)
    nvars = len(pairs) + extra_vars
    mat = [
        [MPoly.var(nvars, index[(min(i, j), max(i, j))]) for j in range(n)]
        for i in range(n)
    ]
    return mat, index, nvars
