"""Independent checks of the program's outputs.

Nothing here imports troplift.  Verdict tables are checked against the
paper's properties and against brute force over permutations; lift
certificates are read with json and fractions and re-checked with the
benchmark's own series arithmetic and elimination.  Every check returns a
list of problems, empty when the output passes.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations, permutations
from math import isqrt, lcm

VARIETIES = ("rank2", "sym_rank2", "corank1", "sym_corank1")
MODES = ("C", "R", "C+", "R+")
CLAIMS = {
    "rank2": "rank<=2",
    "sym_rank2": "symmetric rank<=2",
    "corank1": "singular",
    "sym_corank1": "symmetric singular",
}
# Example 5.2 of the paper: symmetric singular, in the positive part over
# C but not over R.
EX52 = ((2, 0, 1, 0), (0, 2, 0, 2), (1, 0, 2, 0), (0, 2, 0, 1))
# evaluation points for exact certificates, t = s**L
EVAL_POINTS = (Fraction(3, 2), Fraction(5, 7))


# ---------------------------------------------------------------------------
# brute force over permutations


def perm_sign(sigma) -> int:
    sign = 1
    seen = [False] * len(sigma)
    for i in range(len(sigma)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = sigma[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def trop_det_value(a) -> Fraction:
    n = len(a)
    return min(sum(a[i][s[i]] for i in range(n)) for s in permutations(range(n)))


def plain_tie(a) -> bool:
    """Two or more permutations attain the tropical determinant."""
    n = len(a)
    values = [sum(a[i][s[i]] for i in range(n)) for s in permutations(range(n))]
    return values.count(min(values)) >= 2


def sym_exponent(sigma) -> tuple:
    """Upper-triangular exponent matrix of a permutation's monomial in the
    determinant of a symmetric matrix (x_ij = x_ji)."""
    n = len(sigma)
    exp = [[0] * n for _ in range(n)]
    for i, j in enumerate(sigma):
        exp[min(i, j)][max(i, j)] += 1
    return tuple(tuple(r) for r in exp)


def sym_tie_size(a) -> int:
    """Distinct monomials of the symmetric determinant attaining its
    minimum: the minimizing permutations grouped by exponent matrix."""
    n = len(a)
    scale = lcm(*(x.denominator for row in a for x in row))
    grid = [[int(x * scale) for x in row] for row in a]
    best, ties = None, []
    for s in permutations(range(n)):
        v = sum(grid[i][s[i]] for i in range(n))
        if best is None or v < best:
            best, ties = v, [s]
        elif v == best:
            ties.append(s)
    return len({sym_exponent(s) for s in ties})


def sym_tie(a) -> bool:
    return sym_tie_size(a) >= 2


def all_3x3_singular(a) -> bool:
    d, n = len(a), len(a[0])
    for ri in combinations(range(d), 3):
        for cj in combinations(range(n), 3):
            if not plain_tie([[a[i][j] for j in cj] for i in ri]):
                return False
    return True


# ---------------------------------------------------------------------------
# decide: verdict tables


def check_verdicts(a, table: dict, kind: str) -> list:
    """table[variety][mode] -> bool for one symmetric matrix a."""
    bad = []
    for v in VARIETIES:
        row = table[v]
        if row["C"] != row["R"]:
            bad.append(f"{v}: C != R")
        if row["R+"] and not row["C+"]:
            bad.append(f"{v}: R+ without C+")
        if row["C+"] and not row["C"]:
            bad.append(f"{v}: C+ without C")
    for v in ("rank2", "sym_rank2", "corank1"):
        if table[v]["C+"] != table[v]["R+"]:
            bad.append(f"{v}: C+ != R+")
    if kind != "generic":
        for v in VARIETIES:
            if not table[v]["C"]:
                bad.append(f"{kind} input is not reported in {v} over C")
    if kind == "mirror_product":
        for v in ("rank2", "sym_rank2"):
            if not table[v]["C+"]:
                bad.append(f"mirror product is not reported in {v} over C+")
    if plain_tie(a) != table["corank1"]["C"]:
        bad.append("corank1 over C disagrees with the brute-force determinant tie")
    if sym_tie(a) != table["sym_corank1"]["C"]:
        bad.append("sym_corank1 over C disagrees with the brute-force class tie")
    if all_3x3_singular(a) != table["rank2"]["C"]:
        bad.append("rank2 over C disagrees with the brute-force 3x3 minors")
    return bad


# ---------------------------------------------------------------------------
# coefficients a + b*sqrt(d) as pairs over one radicand per certificate


class Field:
    """Q(sqrt(d)) arithmetic on pairs (a, b); d = None means Q."""

    def __init__(self, d):
        self.d = d

    def mul(self, x, y):
        a1, b1 = x
        a2, b2 = y
        if self.d is None:
            return (a1 * a2, 0)
        return (a1 * a2 + b1 * b2 * self.d, a1 * b2 + a2 * b1)

    @staticmethod
    def add(x, y):
        return (x[0] + y[0], x[1] + y[1])

    @staticmethod
    def is_zero(x) -> bool:
        return x[0] == 0 and x[1] == 0

    def inv(self, x):
        a, b = x
        norm = a * a - (b * b * self.d if self.d is not None else 0)
        return (a / norm, -b / norm)

    def sign(self, x) -> int:
        a, b = x
        sa = (a > 0) - (a < 0)
        sb = (b > 0) - (b < 0)
        if sb == 0 or sa == sb:
            return sa or sb
        if sa == 0:
            return sb
        lhs, rhs = a * a, b * b * self.d
        if lhs == rhs:
            return 0
        return sa if lhs > rhs else sb


def _rational_sqrt(q: Fraction):
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def parse_certificate(raw: str):
    """(document, field, lift) where lift[i][j] = (terms, trunc) and terms
    is a list of (exponent, (a, b)) pairs."""
    doc = json.loads(raw)
    radicands = set()
    lift = []
    for row in doc["lift"]:
        out_row = []
        for entry in row:
            terms = []
            for term in entry["terms"]:
                coef = term["coef"]
                if isinstance(coef, dict):
                    a, b, d = (Fraction(coef[k]) for k in "abd")
                    root = _rational_sqrt(d)
                    if root is not None:
                        a, b = a + b * root, Fraction(0)
                    elif b != 0:
                        radicands.add(d)
                    pair = (a, b)
                else:
                    pair = (Fraction(coef), Fraction(0))
                terms.append((Fraction(term["exp"]), pair))
            trunc = entry["trunc"]
            out_row.append((terms, None if trunc == "inf" else Fraction(trunc)))
        lift.append(out_row)
    if len(radicands) > 1:
        raise ValueError(f"certificate mixes radicands {sorted(radicands)}")
    return doc, Field(radicands.pop() if radicands else None), lift


def _normalise(field, terms, trunc):
    """Merge equal exponents, drop zeros and terms at or above trunc."""
    acc: dict = {}
    for e, c in terms:
        if trunc is not None and e >= trunc:
            continue
        acc[e] = field.add(acc[e], c) if e in acc else c
    return sorted((e, c) for e, c in acc.items() if not field.is_zero(c))


def valuation(field, series):
    terms, trunc = series
    terms = _normalise(field, terms, trunc)
    return terms[0][0] if terms else None


def series_det(field, rows):
    """Leibniz expansion of a matrix of (terms, trunc) series; returns the
    determinant's terms below the order to which it is known, and that
    order (None when every entry is exact).  The order is the least, over
    permutations and factors, of one factor's truncation plus the other
    factors' valuations; partial products drop terms that cannot land
    below it.  Exponents are scaled to integers for the expansion."""
    n = len(rows)
    rows = [[_low_form(field, e) for e in row] for row in rows]
    scale = lcm(*(
        x.denominator
        for row in rows for terms, trunc in row
        for x in [e for e, _ in terms] + ([trunc] if trunc is not None else [])
    ))
    grid = [
        [([(int(e * scale), c) for e, c in terms], None if t is None else int(t * scale))
         for terms, t in row]
        for row in rows
    ]
    low = [[terms[0][0] if terms else t for terms, t in row] for row in grid]
    perms = [s for s in permutations(range(n)) if all(low[i][s[i]] is not None for i in range(n))]
    order = None
    for s in perms:
        total = sum(low[i][s[i]] for i in range(n))
        for i in range(n):
            t = grid[i][s[i]][1]
            if t is not None:
                cand = total - low[i][s[i]] + t
                order = cand if order is None else min(order, cand)
    acc: dict = {}
    for s in perms:
        rest = sum(low[i][s[i]] for i in range(n))
        prod = [(0, (Fraction(perm_sign(s)), Fraction(0)))]
        for i in range(n):
            rest -= low[i][s[i]]
            prod = [
                (e1 + e2, field.mul(c1, c2))
                for e1, c1 in prod
                for e2, c2 in grid[i][s[i]][0]
                if order is None or e1 + e2 + rest < order
            ]
        for e, c in prod:
            acc[e] = field.add(acc[e], c) if e in acc else c
    terms = sorted((Fraction(e, scale), c) for e, c in acc.items() if not field.is_zero(c))
    return terms, None if order is None else Fraction(order, scale)


def _low_form(field, series):
    terms, trunc = series
    return _normalise(field, terms, trunc), trunc


def _eval_entry(field, series, t_of):
    total = (Fraction(0), Fraction(0))
    for e, c in series[0]:
        total = field.add(total, field.mul(c, (t_of(e), Fraction(0))))
    return total


def eval_rank(field, rows) -> int:
    """Rank by Gaussian elimination over Q or Q(sqrt(d))."""
    m = [list(r) for r in rows]
    rank, col = 0, 0
    ncols = len(m[0]) if m else 0
    while rank < len(m) and col < ncols:
        piv = next((r for r in range(rank, len(m)) if not field.is_zero(m[r][col])), None)
        if piv is None:
            col += 1
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = field.inv(m[rank][col])
        for r in range(rank + 1, len(m)):
            if field.is_zero(m[r][col]):
                continue
            f = field.mul(m[r][col], inv)
            neg = (-f[0], -f[1])
            m[r] = [field.add(x, field.mul(neg, y)) for x, y in zip(m[r], m[rank])]
        rank += 1
        col += 1
    return rank


def check_certificate(raw: str, variety: str, mode: str, matrix) -> list:
    """Re-check one lift certificate against its request."""
    bad = []
    doc, field, lift = parse_certificate(raw)
    target = [[Fraction(x) for x in row] for row in doc["target"]["entries"]]
    symmetric = variety.startswith("sym")
    if target != [list(r) for r in matrix]:
        bad.append("target differs from the input")
    if bool(doc["target"].get("symmetric")) != symmetric:
        bad.append("target symmetry flag differs from the request")
    if doc["claimed"] != CLAIMS[variety]:
        bad.append(f"claimed {doc['claimed']!r} for a {variety} request")
    allowed = ("all-positive",) if mode == "R+" else ("none", "all-positive")
    if doc["positivity"] not in allowed:
        bad.append(f"positivity {doc['positivity']!r} for mode {mode}")
    d, n = len(target), len(target[0])
    if len(lift) != d or any(len(r) != n for r in lift):
        return bad + ["lift shape differs from the target"]
    for i in range(d):
        for j in range(n):
            terms, trunc = lift[i][j]
            if trunc is not None and any(e >= trunc for e, _ in terms):
                bad.append(f"entry ({i},{j}) lists a term at or above its truncation")
            v = valuation(field, lift[i][j])
            if v != target[i][j]:
                bad.append(f"entry ({i},{j}) has valuation {v}, target {target[i][j]}")
            elif doc["positivity"] == "all-positive":
                lead = _normalise(field, terms, trunc)[0][1]
                if field.sign(lead) <= 0:
                    bad.append(f"entry ({i},{j}) has a nonpositive leading coefficient")
    if symmetric:
        for i in range(d):
            for j in range(i):
                a, b = lift[i][j], lift[j][i]
                if (_normalise(field, *a), a[1]) != (_normalise(field, *b), b[1]):
                    bad.append(f"entries ({i},{j}) and ({j},{i}) differ")
    if bad:
        return bad
    rank_bound = 2 if variety in ("rank2", "sym_rank2") else min(d, n) - 1
    exact = all(lift[i][j][1] is None for i in range(d) for j in range(n))
    if exact:
        scale = lcm(*(e.denominator for row in lift for terms, _ in row for e, _ in terms))
        for s in EVAL_POINTS:
            point = [
                [_eval_entry(field, entry, lambda e: s ** int(e * scale)) for entry in row]
                for row in lift
            ]
            r = eval_rank(field, point)
            if r > rank_bound:
                bad.append(f"rank {r} > {rank_bound} at t = ({s})^{scale}")
        return bad
    size = rank_bound + 1
    for ri in combinations(range(d), size):
        for cj in combinations(range(n), size):
            bad += check_vanishing(
                field,
                [[lift[i][j] for j in cj] for i in ri],
                trop_det_value([[target[i][j] for j in cj] for i in ri]),
                f"minor {ri}x{cj}",
            )
    return bad


def check_vanishing(field, rows, floor, label) -> list:
    """The determinant of a matrix of truncated series must have no known
    term, and be known to an order above the tropical value `floor`, so
    that the cancellation of the leading monomials is itself checked."""
    terms, order = series_det(field, rows)
    if terms:
        return [f"{label} is nonzero at order {terms[0][0]}"]
    if order is not None and order <= floor:
        return [f"{label} is known to vanish only below {order}, not above the tropical value {floor}"]
    return []
