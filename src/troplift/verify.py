"""The independent verifier of Puiseux lift certificates.

verify_lift recomputes everything from scratch: entrywise valuations
against the target, realness of every coefficient, positivity of leading
terms, vanishing of all 3x3 minors for rank claims, and vanishing of the
determinant for singularity claims.  Constructions that only multiply and
add finite series verify exactly; a square-root branch leaves a truncated
tail and the transcript records the order checked.  A truncated
determinant or minor that is known only up to its tropical value (the
least valuation sum over permutations) has proved nothing, and fails.

Every determinant and minor runs on one integer grid per matrix
(series_grid): exponents scaled by one lcm, and each row's coefficients
put on quadext's coefficient lattice over that row's own common
denominator, a single radicand sqrt(p/q) written as sqrt(pq)/q, so the
arithmetic multiplies Python ints only.  verify_lift puts a lift on its grid once,
and every check it makes reads that grid.  On the grid, a Laplace
expansion over column subsets (_expand, n 2^(n-1) products for n x n,
not n n!) carries the partial determinants of the first k rows from the
k-column subsets to the (k+1)-column ones, one row step (_row_step) per
subset.  It makes only the subsets with at most as many columns as it
has rows, so two rows of n columns cost C(n, 1) + C(n, 2) steps.

_minor is the one kernel for a square minor on chosen rows and columns.
It expands rows in ascending order of their term count, heavy rows last,
and applies the sign of that row permutation once to the result.  When
an entry is truncated, one min-plus pass gives both the order to which
the minor is known and its tropical value, and partial terms that cannot
land below that order are dropped as they arise.  _det_vanishes reads
its verdict off _minor's ints and builds no series.  The constructions
read their coefficients through two public readers, several minors of
one matrix off its series_grid: minor_ints, a minor on chosen rows and
columns as its grid ints, its order and the rows' denominator, which the
symmetric solve hands to puiseux.quad_ints as they are; and series_det,
the same minor turned back into a series (minor_ints plus the one
conversion), which the linear solve reads.

An exact rank claim is checked on the 3x3 minors that border the first
nonzero 2x2 minor: by the bordered-minor theorem a nonzero k x k minor
whose bordering (k+1) x (k+1) minors all vanish fixes the rank at k, so
every 3x3 minor vanishes.  The two pivot rows are expanded once, which
gives every 2x2 minor on them, and each bordering minor is one more row
step of that expansion, zero when every int of it is.  Truncated entries
are known only to an order, and bordering would divide by the 2x2 pivot
and lose precision by its valuation, so they scan every 3x3 minor, each
through _minor on the same grid.

A check is refused by its cost, like every enumeration in the package:
verify_lift raises SizeLimit just before it would expand a minor with
more rows than the bound, n x n for a singular claim and min(3, d, n) on
a side for a rank claim.

This module is the trusted base: it imports no construction, analysis
or membership module, only exact arithmetic, series and matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import inf, lcm, prod
from typing import NamedTuple

from .config import MAX_ENUMERATION_BOUND
from .errors import DimensionMismatch, SizeLimit, ValuationUnknown
from .puiseux import PuiseuxSeries
from .quadext import QuadExt, from_lattice, to_lattice
from .tropmat import TropMatrix

CLAIMS = ("rank<=2", "symmetric rank<=2", "singular", "symmetric singular")
POSITIVITIES = ("none", "all-positive")


@dataclass
class LiftCertificate:
    target: TropMatrix
    lift: tuple  # tuple of row tuples of PuiseuxSeries
    claimed: str  # rank<=2 | symmetric rank<=2 | singular | symmetric singular
    positivity: str  # none | all-positive
    transcript: list = field(default_factory=list)
    seed: int | None = None
    method: str = ""

    @property
    def valid(self) -> bool:
        return bool(self.transcript) and all(step["ok"] for step in self.transcript)


def _min_plus(vals, truncs):
    """Least valuation sum and least known order, over column subsets.

    vals[i][j] is an entry's valuation (its truncation when it has no known
    term; None for an exact zero, which no permutation may use) and
    truncs[i][j] its truncation (None when exact).  For the bottom |C| rows
    assigned to the columns C, least[C] is the least sum of valuations and
    order[C] the least order to which such a product is known: one
    truncated factor's truncation plus the other factors' valuations.
    Subsets that no assignment reaches hold inf.
    """
    n = len(vals)
    size = 1 << n
    least = [inf] * size
    order = [inf] * size
    least[0] = 0
    for mask in range(size - 1):
        low, known = least[mask], order[mask]
        if low == inf:
            continue
        i = n - 1 - mask.bit_count()
        for j in range(n):
            bit = 1 << j
            v = vals[i][j]
            if mask & bit or v is None:
                continue
            wider = mask | bit
            least[wider] = min(least[wider], low + v)
            t = truncs[i][j]
            cand = known + v if t is None else min(known + v, low + t)
            order[wider] = min(order[wider], cand)
    return least, order


class _Grid(NamedTuple):
    """A matrix of series on one integer grid, converted once.

    Exponent e becomes the integer e L, with L (exp_den) the lcm of every
    exponent and truncation denominator.  Each row is one group of
    quadext.to_lattice: it is scaled by its own common coefficient
    denominator dens[k], which a determinant or minor takes out once since
    it is linear in each row, and its coefficients become integer pairs over
    sqrt(pq) for the one radicand p/q (two radicands are refused there).
    terms[k][j] lists entry (k, j) as (key, coefficient) int pairs sorted
    by key, the key 2 e L + (1 if the term carries sqrt(pq) else 0), so
    one dict of ints holds both parts; truncs[k][j] is the entry's
    truncation on the grid, or None.
    """

    exp_den: int
    radicand: Fraction | None
    dens: list
    terms: list
    truncs: list

    @property
    def root_sq(self) -> int:
        """pq, the square of sqrt(pq); 0 without a radicand."""
        r = self.radicand
        return 0 if r is None else r.numerator * r.denominator


def series_grid(mat) -> _Grid:
    """The integer grid of a d x n matrix of series (see _Grid), which
    verify_lift checks and series_det reads its minors off."""
    exp_den, coeffs = 1, []
    for row in mat:
        group = []
        for s in row:
            if s.trunc is not None:
                exp_den = lcm(exp_den, s.trunc.denominator)
            for e, c in s.terms:
                exp_den = lcm(exp_den, e.denominator)
                group.append(c)
        coeffs.append(group)
    radicand, rows = to_lattice(coeffs)
    terms = []
    for row, (_, pairs) in zip(mat, rows):
        pairs = iter(pairs)
        grid_row = []
        for s in row:
            out = []
            for (e, _), (a, b) in zip(s.terms, pairs):
                key = 2 * e.numerator * (exp_den // e.denominator)
                if a:
                    out.append((key, a))
                if b:
                    out.append((key + 1, b))
            out.sort()
            grid_row.append(out)
        terms.append(grid_row)
    truncs = [
        [None if s.trunc is None else s.trunc.numerator * (exp_den // s.trunc.denominator) for s in row]
        for row in mat
    ]
    return _Grid(exp_den, radicand, [den for den, _ in rows], terms, truncs)


def _row_step(partial, row, target: int, root_sq: int, cap=inf) -> dict:
    """One row of the column-subset expansion, for the column subset
    `target`: D[T] = sum over the columns j of T of (-1)^s D[T - j] m[j],
    with s the number of columns of T above j and m the row's grid terms.
    Keys at or above `cap` are dropped; each entry's terms are sorted, and
    the exponent key >> 1 only grows along them."""
    out: dict = {}
    for j, ent in enumerate(row):
        bit = 1 << j
        if not target & bit or not ent:
            continue
        src = partial.get(target ^ bit)
        if not src:
            continue
        negate = (target >> (j + 1)).bit_count() & 1
        for k1, c1 in src.items():
            if not c1:
                continue
            if negate:
                c1 = -c1
            for k2, c2 in ent:
                key = k1 + k2
                if k1 & k2 & 1:  # sqrt(pq) * sqrt(pq) = pq
                    key -= 2
                    c2 *= root_sq
                if key >= cap:
                    break
                out[key] = out.get(key, 0) + c1 * c2
    return out


def _expand(rows, ncols: int, root_sq: int, least=None, known=inf) -> dict:
    """Partial determinants of the grid rows `rows` (each a list of ncols
    entries' terms): the result maps each column subset S of size
    len(rows), as a bit mask, to the determinant of those rows on the
    columns S, a dict from grid keys to ints that vanishes when it holds
    no nonzero value.  Row k moves the subsets of size k to those of size
    k + 1 by _row_step, and only those subsets are made, C(ncols, k + 1)
    of them.  With least (the min-plus pass of a square matrix) and known
    (the order its determinant is known to), a partial term is dropped
    when its exponent plus the least valuation sum of the remaining rows
    on the remaining columns reaches the order, so every dropped term
    would land at or above it."""
    full = (1 << ncols) - 1
    masks, partial = [0], {0: {0: 1}}
    for row in rows:
        # each subset of the next size once: a column above its top one
        masks = [m | 1 << j for m in masks for j in range(m.bit_length(), ncols)]
        wider = {}
        for target in masks:
            rest = 0 if least is None else least[full ^ target]
            if rest != inf:  # keys at or above the cap land at or above the order
                wider[target] = _row_step(partial, row, target, root_sq, 2 * (known - rest))
        partial = wider
    return partial


def _minor(grid: _Grid, rows, cols) -> tuple[dict, float, float]:
    """The minor of a grid on rows x cols (as many of each), on the grid.

    Returns its nonzero terms, a dict from grid keys to ints (the minor
    times the product of the rows' denominators), the order on the grid to
    which it is known, and its tropical value: the least valuation sum
    over the permutations that meet no exact zero, an entry with no known
    term counting with its truncation.  The order is the least, over those
    permutations and their truncated factors, of that factor's truncation
    plus the other factors' valuations.  Order and tropical value are the
    full column set's entries of one min-plus pass, and both are inf when
    no entry is truncated: the minor is then exact and no pass runs.

    Heavy rows last: rows are expanded in ascending order of their number
    of grid terms (stably, so rows already in that order are not moved),
    so a long row multiplies the partial determinants once, at the end.
    """
    terms = [[grid.terms[r][c] for c in cols] for r in rows]
    truncs = [[grid.truncs[r][c] for c in cols] for r in rows]
    n = len(terms)
    sign = 1
    weight = [sum(map(len, row)) for row in terms]
    if weight != sorted(weight):  # heavy rows last, stably
        perm = sorted(range(n), key=weight.__getitem__)
        terms = [terms[k] for k in perm]
        truncs = [truncs[k] for k in perm]
        for k in range(n):
            for later in perm[k + 1 :]:
                if later < perm[k]:
                    sign = -sign
    full = (1 << n) - 1
    if any(t is not None for row in truncs for t in row):
        vals = [
            [ts[0][0] >> 1 if ts else t for ts, t in zip(trow, tcol)]
            for trow, tcol in zip(terms, truncs)
        ]
        least, order = _min_plus(vals, truncs)
        known, value = order[full], least[full]
    else:  # exact entries: an exact minor, no term to drop
        least, known, value = None, inf, inf
    partial = _expand(terms, n, grid.root_sq, least, known)
    return {key: sign * c for key, c in partial.get(full, {}).items() if c}, known, value


def minor_ints(mat, rows=None, cols=None) -> tuple[dict, int | None, int]:
    """The minor of a matrix of series on rows x cols (all of its rows and
    all of its columns by default), as ints on the matrix's grid.

    Returns (terms, known, den): terms maps grid keys to ints (see _Grid)
    and is the minor times den, the product of the rows' denominators;
    known is the order on the grid to which the minor is known (see
    _minor), None when no permutation that meets no exact zero has a
    truncated factor.  `mat` is the matrix or its series_grid, so several
    minors of one matrix can be read off one grid.
    """
    grid = mat if isinstance(mat, _Grid) else series_grid(mat)
    width = len(grid.terms[0]) if grid.terms else 0
    rows = range(len(grid.terms)) if rows is None else rows
    cols = range(width) if cols is None else cols
    if len(rows) != len(cols) or any(len(row) != width for row in grid.terms):
        raise DimensionMismatch(
            f"determinant needs a square minor, got {len(rows)} rows and {len(cols)} columns"
        )
    terms, known, _ = _minor(grid, rows, cols)
    return terms, None if known == inf else known, prod(grid.dens[r] for r in rows)


def series_det(mat, rows=None, cols=None) -> PuiseuxSeries:
    """The minor_ints of a matrix of series on rows x cols as a series:
    quadext.from_lattice divides each term by the rows' denominator."""
    grid = mat if isinstance(mat, _Grid) else series_grid(mat)
    terms, known, scale = minor_ints(grid, rows, cols)
    parts: dict = {}
    for key, c in terms.items():
        parts.setdefault(key >> 1, [0, 0])[key & 1] = c
    exp_den, radicand = grid.exp_den, grid.radicand
    pairs = [
        (Fraction(e, exp_den), from_lattice(a, b, scale, radicand)) for e, (a, b) in parts.items()
    ]
    return PuiseuxSeries.make(pairs, None if known is None else Fraction(known, exp_den))


def _det_vanishes(grid: _Grid, rows, cols) -> tuple[bool, str]:
    """Whether the minor of a grid on rows x cols is zero as far as it is
    known, read off _minor's ints.  A truncated minor known only up to its
    tropical value has no term that could have shown, so it proves nothing
    and fails."""
    terms, known, value = _minor(grid, rows, cols)
    exp_den = grid.exp_den
    if terms:
        return False, f"nonzero at order {Fraction(min(terms) >> 1, exp_den)}"
    if known == inf:
        return True, "exactly zero"
    order = Fraction(known, exp_den)
    if known <= value:
        return False, f"known only to order {order}, not above its tropical value {Fraction(value, exp_den)}"
    return True, f"zero up to order {order}"


def _bordered_rank2(grid: _Grid, d: int, n: int) -> bool:
    """True when an exact d x n matrix, on its grid, has rank <= 2,
    checked on the 3x3 minors bordering its lexicographically first
    nonzero 2x2 minor.

    Bordered-minor theorem: if a k x k minor is nonzero and every
    (k+1) x (k+1) minor containing it vanishes, the rank is k.  With no
    nonzero 2x2 minor the rank is at most 1.

    For each pair of pivot rows, the column-subset expansion over those
    two rows gives every 2x2 minor on them at once; a bordering 3x3 minor
    is one more row step of that expansion.  A minor is zero when every
    int of it is.
    """
    terms, root_sq = grid.terms, grid.root_sq
    for p in combinations(range(d), 2):
        pivot = _expand([terms[i] for i in p], n, root_sq)
        for q in combinations(range(n), 2):
            cols = (1 << q[0]) | (1 << q[1])
            if not any(pivot.get(cols, {}).values()):
                continue
            return not any(
                any(_row_step(pivot, terms[r], cols | 1 << c, root_sq).values())
                for r in range(d)
                if r not in p
                for c in range(n)
                if c not in q
            )
    return True


def _scan_3x3(grid: _Grid, d: int, n: int) -> tuple[bool, str]:
    """Every 3x3 minor of a d x n grid in lexicographic order; names the
    first one that does not vanish."""
    for ri in combinations(range(d), 3):
        for cj in combinations(range(n), 3):
            z, why = _det_vanishes(grid, ri, cj)
            if not z:
                return False, f"minor {ri}x{cj} {why}"
    return True, "all 3x3 minors vanish"


def _agree(x: PuiseuxSeries, y: PuiseuxSeries) -> bool:
    """x - y has no known term: the normalised terms of x and y agree below
    their shared truncation order."""
    if x.trunc == y.trunc:
        return x.terms == y.terms
    if x.trunc is None or (y.trunc is not None and y.trunc < x.trunc):
        x, y = y, x
    # x has the lower order; y's terms from that order on are not compared
    order = x.trunc
    return x.terms == tuple(t for t in y.terms if t[0] < order)


def _nonreal(c) -> bool:
    """A coefficient a + b sqrt(d) with b != 0 and radicand d <= 0: no real
    number in normal form (QuadExt.make folds d = 0 and square d)."""
    return isinstance(c, QuadExt) and c.b != 0 and c.d <= 0


def _positive(s: PuiseuxSeries) -> bool:
    """A known, real and positive leading coefficient."""
    return bool(s.terms) and not _nonreal(s.terms[0][1]) and s.lead_sign() > 0


def verify_lift(cert: LiftCertificate, bound: int = MAX_ENUMERATION_BOUND) -> list:
    """Independent re-check of a certificate; returns the transcript.

    An unknown claim or positivity value adds a failing step, and so does
    a coefficient with a radicand d <= 0 (that step appears only on
    failure).  Coefficients over two radicands add a failing one_radicand
    step, which also appears only on failure, and end the check before
    any series arithmetic could mix them.  Rank claims with exact entries
    are checked by bordering one nonzero 2x2 minor (every 3x3 minor then
    vanishes exactly); a truncated entry, or a nonzero bordered minor,
    falls back to scanning every 3x3 minor, so a rejection names the
    first failing minor.  A singular or
    symmetric claim on a non-square target adds a failing step and ends
    the check.  SizeLimit is raised just before a minor with more rows
    than `bound` would be expanded.
    """
    steps = []
    if cert.claimed not in CLAIMS:
        steps.append({"check": "claim", "ok": False, "detail": f"unknown claim {cert.claimed!r}"})
    if cert.positivity not in POSITIVITIES:
        steps.append(
            {"check": "positivity", "ok": False, "detail": f"unknown positivity {cert.positivity!r}"}
        )
    lift = cert.lift
    target = cert.target
    d, n = target.rows, target.cols
    shape_ok = len(lift) == d and all(len(row) == n for row in lift)
    steps.append({"check": "shape", "ok": shape_ok, "detail": f"{d}x{n}"})
    if not shape_ok:
        cert.transcript = steps
        return steps

    bad, nonreal, radicands = [], [], {}
    for i in range(d):
        for j in range(n):
            try:
                v = lift[i][j].val()
            except ValuationUnknown:
                v = None
            if v != target[i, j]:
                bad.append((i, j, str(v), str(target[i, j])))
            if any(_nonreal(c) for _, c in lift[i][j].terms):
                nonreal.append((i, j))
            for _, c in lift[i][j].terms:
                if isinstance(c, QuadExt) and c.b:
                    radicands.setdefault(c.d, (i, j))
    steps.append(
        {
            "check": "valuations",
            "ok": not bad,
            "detail": "entrywise val equals target" if not bad else f"mismatches: {bad[:4]}",
        }
    )
    if nonreal:
        steps.append(
            {
                "check": "real_coefficients",
                "ok": False,
                "detail": f"radicand <= 0 at {nonreal[:4]}",
            }
        )

    if cert.positivity == "all-positive":
        neg = [(i, j) for i in range(d) for j in range(n) if not _positive(lift[i][j])]
        steps.append(
            {
                "check": "positive_leading_terms",
                "ok": not neg,
                "detail": "all entries positive" if not neg else f"nonpositive at {neg[:4]}",
            }
        )

    if len(radicands) > 1:
        first = ", ".join(f"sqrt({r}) at {pos}" for r, pos in list(radicands.items())[:4])
        steps.append({"check": "one_radicand", "ok": False, "detail": f"radicands {first}"})
        cert.transcript = steps
        return steps

    if cert.claimed in ("singular", "symmetric rank<=2", "symmetric singular") and d != n:
        steps.append(
            {"check": "square", "ok": False, "detail": f"{cert.claimed} needs a square matrix, got {d}x{n}"}
        )
        cert.transcript = steps
        return steps

    if cert.claimed in ("symmetric rank<=2", "symmetric singular"):
        asym = [
            (i, j)
            for i in range(d)
            for j in range(n)
            if i != j and not _agree(lift[i][j], lift[j][i])
        ]
        steps.append(
            {
                "check": "symmetry",
                "ok": not asym,
                "detail": "lift is symmetric" if not asym else f"asymmetric at {asym[:4]}",
            }
        )

    if cert.claimed in ("rank<=2", "symmetric rank<=2"):
        side = min(3, d, n)
        if side > bound:
            raise SizeLimit(
                f"checking {cert.claimed} expands {side}x{side} minors, above bound {bound}"
            )
        grid = series_grid(lift)
        exact = all(t is None for row in grid.truncs for t in row)
        if exact and _bordered_rank2(grid, d, n):
            ok, detail = True, "all 3x3 minors vanish"
        else:
            ok, detail = _scan_3x3(grid, d, n)
        if ok:
            detail += " (exact)" if exact else " (to truncation)"
        steps.append({"check": "minors_3x3_vanish", "ok": ok, "detail": detail})

    if cert.claimed in ("singular", "symmetric singular"):
        if n > bound:
            raise SizeLimit(
                f"checking {cert.claimed} expands the {n}x{n} determinant, above bound {bound}"
            )
        z, why = _det_vanishes(series_grid(lift), range(n), range(n))
        steps.append({"check": "determinant_vanishes", "ok": z, "detail": why})

    cert.transcript = steps
    return steps
