"""Tropical determinants, rank notions, and Barvinok factorizations.

All minima are exhaustive enumerations on an integer grid: entries are
rescaled by their denominator lcm, so the scans add ints, and a minimum
goes back to a Fraction only once, as best / scale.  Every determinant
minimum (trop_det, sym_trop_det, the rank scans' minors from 4 x 4 on,
membership's minor signs) is one permutation scan, _perm_argmin, over a
scan table per size n up to 5: the permutations of range(n) in
permutations order as their flat row-major cell indices, built on first
use and kept.  The scan sums every permutation of a flat grid in one
comprehension over that table (written out for n = 4 and 5), and the
minimum, its multiplicity and the minimisers are read off that one list
of sums, so a uniqueness test builds no argmin list.  A larger scan
expands along row 0 down to 5 x 5 scans, which is faster than a
comprehension over a 6 x 6 or 7 x 7 table and builds none (an 8 x 8
table would hold about 7 MB).
On a symmetric matrix every permutation of a symmetric monomial class has
the class's value, so the symmetric argmin is the plain argmin grouped
into classes: sym_trop_det reads the memoised trop_det of the same
matrix, and each minimiser's class built from its exponent.  Enumeration
refuses inputs above the configured bound rather than risking a wrong
uniqueness verdict.  The rank scans write out their
1 x 1, 2 x 2 and 3 x 3 uniqueness tests as int sums (6 permutation sums
for a plain 3 x 3 minor, 5 class sums for a principal one) and scan
from 4 x 4 on, except for a square matrix's full-size minor: that is the
matrix itself, nonsingular when its memoised trop_det (for the symmetric
scan, sym_trop_det) has no tie.  The determinant of a transposed minor
has the same terms, so on a symmetric matrix a scan tests one minor of
each transposed pair.  Rank <= 2 is read off the rank-2 tree: at 3 x 3
trop_rank tests the minors on rows 0, 1 and 2, and when none of them is
nonsingular and rows are left, the memoised trees._rank2_tree answers (a
tree, or None above rank 2; without a tree the scan goes on and must find
a nonsingular 3 x 3).  sym_trop_rank starts from the memoised trop_rank
and tests only principal minors above it: below it both tests find a
nonsingular minor of every size, and above it every non-principal minor
is singular.

The Barvinok witnesses are read off the caterpillar's spine on one int
grid too (_witness_grid): the matrix and the tree's int spine offsets go
over U = 2 * lcm(scale, tree.unit), where every offset and every entry is
even, so the half coordinates, the edge midpoint and a_ii / 2 the
witnesses need are ints.  Each witness's check that it reproduces the
matrix compares ints and raises, so python -O keeps it, and the witness's
entries become Fractions once, as x / U.

The determinants, the ranks, the two Barvinok tests, membership's edge
table and the rank-2 tree (trees._rank2_tree) are kept in one store of
per-matrix records (recorded), each mapping (analysis, bound) to a
result, for the last STORE_SIZE matrices asked about.  f(a), f(a, 8) and
f(a, bound=8) read one entry, so the sixteen membership questions asked
of one matrix compute each analysis once.  Raised errors are not kept; a
Barvinok test's rank_too_high record is returned, so it is.  Nothing
returned aliases mutable record state: results, Barvinok records and
edges are immutable, trees and witnesses are never written, and the
payload dicts are membership's, built per call.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from itertools import combinations, compress, islice, permutations
from math import comb, lcm
from typing import NamedTuple

from .config import MAX_ENUMERATION_BOUND
from .errors import DimensionMismatch, SizeLimit
from .monomials import plain_class, sym_exponent
from .tropmat import TropMatrix

STORE_SIZE = 32  # matrices whose analysis records the store keeps
_RECORDS: dict = {}  # matrix -> {(analysis name, bound): result}, oldest first
FILLS: Counter = Counter()  # analysis name -> results computed since clear()
_TABLE_MAX_N = 5  # largest n with a scan table; larger scans expand along row 0
_TABLES: dict = {}  # n -> scan table; a constant of n, so it stays warm


def clear() -> None:
    """Empty the analysis store and its fill counts."""
    _RECORDS.clear()
    FILLS.clear()


def recorded(fn):
    """The analysis fn(a, bound), or fn(a) under bound None, kept in a's
    record under (fn's name, bound) however the bound is passed; a full
    store drops its oldest record for a new one.  Errors are not kept."""
    name = fn.__name__
    if fn.__code__.co_argcount == 1:
        bounded = recorded(wraps(fn)(lambda a, bound: fn(a)))
        return wraps(fn)(lambda a: bounded(a, None))

    @wraps(fn)
    def analysis(a: TropMatrix, bound: int = MAX_ENUMERATION_BOUND):
        try:
            return _RECORDS[a][name, bound]
        except KeyError:
            pass
        result = fn(a, bound)
        FILLS[name] += 1
        if a not in _RECORDS and len(_RECORDS) >= STORE_SIZE:
            del _RECORDS[next(iter(_RECORDS))]
        _RECORDS.setdefault(a, {})[name, bound] = result
        return result

    return analysis


@dataclass(frozen=True)
class TropDetResult:
    min_value: Fraction
    argmin: tuple  # SignedMonomialClass, all attaining the minimum
    tie: bool


def _check_square(a: TropMatrix, bound: int):
    if not a.is_square():
        raise DimensionMismatch(f"determinant needs a square matrix, got {a.rows}x{a.cols}")
    if a.rows > bound:
        raise SizeLimit(f"enumeration bound {bound} exceeded (n = {a.rows})")


def _scan_table(n: int) -> tuple:
    """The permutations of range(n) in permutations order, each as its
    flat row-major cell indices on an n x n grid; built on first use and
    kept."""
    table = _TABLES.get(n)
    if table is None:
        perms = permutations(range(n))
        table = _TABLES[n] = tuple(tuple(i * n + s for i, s in enumerate(p)) for p in perms)
    return table


def _perm_sums(cells, n: int) -> list:
    """Every permutation sum of a flat row-major n x n int grid, in
    permutations order, from one pass over the scan table.  Above
    _TABLE_MAX_N the sums expand along row 0: the permutations with
    sigma(0) = c come in permutations order as those of the minor without
    row 0 and column c."""
    if n > _TABLE_MAX_N:
        sums: list = []
        for c in range(n):
            minor = [cells[i * n + j] for i in range(1, n) for j in range(n) if j != c]
            sums += map(cells[c].__add__, _perm_sums(minor, n - 1))
        return sums
    table = _scan_table(n)
    if n == 4:
        return [cells[i] + cells[j] + cells[k] + cells[m] for i, j, k, m in table]
    if n == 5:
        return [cells[i] + cells[j] + cells[k] + cells[m] + cells[r] for i, j, k, m, r in table]
    return [sum(map(cells.__getitem__, sigma)) for sigma in table]


def _perm_argmin(cells, n: int) -> tuple:
    """The one scan behind every tropical determinant, on a flat row-major
    n x n int grid `cells`: (the least permutation sum, how many
    permutations attain it, an iterator over those in permutations order).
    The minimum and its count are read off the one list of sums, and the
    iterator reads the minimisers off it only when it is consumed."""
    sums = _perm_sums(cells, n)
    best = min(sums)
    return best, sums.count(best), compress(permutations(range(n)), map(best.__eq__, sums))


def _cells(grid, rows, cols) -> list:
    """The subgrid of an int grid on rows x cols, flat and row-major, as
    _perm_argmin reads it."""
    return [row[c] for row in map(grid.__getitem__, rows) for c in cols]


@recorded
def trop_det(a: TropMatrix, bound: int = MAX_ENUMERATION_BOUND) -> TropDetResult:
    """Minimum over all permutation monomials, with the full argmin set."""
    _check_square(a, bound)
    scale, grid = a.as_int_grid()
    best, count, arg = _perm_argmin([x for row in grid for x in row], a.rows)
    classes = tuple(map(plain_class, arg))
    return TropDetResult(Fraction(best, scale), classes, count >= 2)


@recorded
def sym_trop_det(a: TropMatrix, bound: int = MAX_ENUMERATION_BOUND) -> TropDetResult:
    """Minimum over monomial classes of the symmetric determinant: the
    minimisers of trop_det grouped into their classes, in exponent order.
    Up to n! minimisers' classes are materialised, so n above the
    enumeration bound is refused before any scan, whatever the bound."""
    _check_square(a, bound)
    if a.rows > MAX_ENUMERATION_BOUND:
        raise SizeLimit(f"monomial enumeration capped at n = {MAX_ENUMERATION_BOUND}")
    a = a.as_symmetric()
    res = trop_det(a, bound)
    classes = {cls.symmetric_class for cls in res.argmin}
    arg = tuple(sorted(classes, key=lambda cls: cls.exponent))
    return TropDetResult(res.min_value, arg, len(arg) >= 2)


def _grid_nonsingular(grid, rows, cols) -> bool:
    """Unique-minimum test for the plain tropical determinant of a subgrid.
    Sizes 1 to 3 are written out; larger ones go through _perm_argmin."""
    k = len(rows)
    if k == 1:
        return True
    if k == 2:
        r0, r1 = grid[rows[0]], grid[rows[1]]
        j0, j1 = cols
        return r0[j0] + r1[j1] != r0[j1] + r1[j0]
    if k == 3:
        r0, r1, r2 = grid[rows[0]], grid[rows[1]], grid[rows[2]]
        j0, j1, j2 = cols
        a0, a1, a2 = r0[j0], r0[j1], r0[j2]
        b0, b1, b2 = r1[j0], r1[j1], r1[j2]
        c0, c1, c2 = r2[j0], r2[j1], r2[j2]
        sums = (a0 + b1 + c2, a0 + b2 + c1, a1 + b0 + c2, a1 + b2 + c0, a2 + b0 + c1, a2 + b1 + c0)
        return sums.count(min(sums)) == 1
    return _perm_argmin(_cells(grid, rows, cols), k)[1] == 1


def _grid_sym_nonsingular(grid, idx) -> bool:
    """Unique-minimum test for the symmetric determinant of a principal
    subgrid: nonsingular when every minimising permutation falls in one
    class.  Sizes 1 to 3 are written out: at size 3 the classes are the
    identity, the three transpositions and the one 3-cycle class."""
    k = len(idx)
    if k == 1:
        return True
    if k == 2:
        i, j = idx
        return grid[i][i] + grid[j][j] != 2 * grid[i][j]
    if k == 3:
        i, j, m = idx
        ri, rj = grid[i], grid[j]
        a, b, c = ri[i], rj[j], grid[m][m]
        x, y, z = ri[j], ri[m], rj[m]
        sums = (a + b + c, x + x + c, y + y + b, z + z + a, x + y + z)
        return sums.count(min(sums)) == 1
    _, _, arg = _perm_argmin(_cells(grid, idx, idx), k)
    first = sym_exponent(next(arg))
    return all(sym_exponent(sigma) == first for sigma in arg)


def _minors(a: TropMatrix, k: int):
    """(rows, cols) of every k x k minor, in scan order: row sets in
    combinations order, and under each every column set.  On a symmetric
    matrix the minor on (cols, rows) is the transpose of the one on (rows,
    cols), whose determinant has the same terms, so only cols >= rows."""
    col_sets = list(combinations(range(a.cols), k))
    # combinations come in tuple order, so cols >= rows is col_sets[i:]
    for i, rows in enumerate(combinations(range(a.rows), k)):
        for cols in col_sets[i:] if a.symmetric else col_sets:
            yield rows, cols


def _some_plain_nonsingular(a: TropMatrix, grid, k: int) -> bool:
    """Whether some k x k minor is tropically nonsingular.  At k = 3 the
    minors on rows 0, 1 and 2 come first; when none of them is and minors
    are left, the rank-2 tree answers: a tree means rank <= 2, and without
    one the rest of the scan must find a nonsingular 3 x 3."""
    minors = _minors(a, k)
    if k == 3:
        if any(_grid_nonsingular(grid, r, c) for r, c in islice(minors, comb(a.cols, 3))):
            return True
        if a.rows == 3:
            return False
        from . import trees

        if trees._rank2_tree(a) is not None:
            return False
        if not any(_grid_nonsingular(grid, r, c) for r, c in minors):
            raise AssertionError("a matrix without a rank-2 tree needs a nonsingular 3 x 3 minor")
        return True
    return any(_grid_nonsingular(grid, r, c) for r, c in minors)


def _some_principal_nonsingular(a: TropMatrix, grid, k: int) -> bool:
    """Whether some principal k x k minor is symmetrically nonsingular."""
    return any(_grid_sym_nonsingular(grid, idx) for idx in combinations(range(a.rows), k))


def _rank(a: TropMatrix, bound: int, rank: int, some_nonsingular, det) -> int:
    """Ascending scan from size rank + 1, given a nonsingular minor of every
    size up to rank, that stops at the first size with none and returns
    the last size with one.  `some_nonsingular(a, grid, k)` tests the k x k
    minors.  A square matrix's full-size minor is the matrix itself, so
    its test reads the memoised determinant `det` that the singular
    questions share."""
    _, grid = a.as_int_grid()
    d, n = a.rows, a.cols
    for k in range(rank + 1, min(d, n) + 1):
        if k > bound:
            raise SizeLimit(f"rank certification needs {k} <= bound {bound}")
        if k == d == n:
            return rank if det(a, bound).tie else k
        if not some_nonsingular(a, grid, k):
            return rank
        rank = k
    return rank


@recorded
def trop_rank(a: TropMatrix, bound: int = MAX_ENUMERATION_BOUND) -> int:
    """Largest size of a tropically nonsingular square submatrix.

    Tropically nonsingular matrices contain nonsingular submatrices of
    every smaller size, so the search ascends and stops at the first size
    with no nonsingular submatrix.  Rank <= 2 is read off the memoised
    rank-2 tree once the 3 x 3 minors on rows 0, 1 and 2 are all singular.
    """
    return _rank(a, bound, 0, _some_plain_nonsingular, trop_det)


@recorded
def sym_trop_rank(a: TropMatrix, bound: int = MAX_ENUMERATION_BOUND) -> int:
    """Largest nonsingular submatrix size, using the symmetric determinant
    (class ties) on principal submatrices and the plain one elsewhere.

    It starts from trop_rank.  Up to the plain rank both tests find a
    nonsingular minor of every size: a plainly nonsingular principal minor
    has one minimising permutation, so one class.  Above it every
    non-principal minor is singular, since a nonsingular one would contain
    a plainly nonsingular minor of every smaller size, so only principal
    minors are tested there, in ascending sizes."""
    a = a.as_symmetric()
    rank = trop_rank(a, bound)
    if rank == a.rows:
        # sym_trop_det has no tie then; it is read for its refusal above
        # MAX_ENUMERATION_BOUND, which the full scan reached too
        sym_trop_det(a, bound)
        return rank
    return _rank(a, bound, rank, _some_principal_nonsingular, sym_trop_det)


class BarvinokRecord(NamedTuple):
    """What a Barvinok rank <= 2 test decided: `kind` names the deciding
    step, `tree` is None above tropical rank 2, and `witness`, when `ok`,
    is (B, C) with A = B ⊙ C, or for the symmetric test B with A = B ⊙ B^T.
    The symmetric test adds its SymbicReport and whether the symbic tree
    is a caterpillar."""

    ok: bool
    kind: str
    tropical_rank: int
    tree: object
    witness: object
    report: object = None
    caterpillar: bool = False


@recorded
def barvinok_rank2(a: TropMatrix, bound: int = MAX_ENUMERATION_BOUND) -> BarvinokRecord:
    """Decide Barvinok rank <= 2 and build a factorization witness.

    A matrix has Barvinok rank <= 2 exactly when its bicolored tree is a
    caterpillar, and the witness reads the factors off the spine, through
    at most two inner dimensions.  The rank is read once: above 2 it is
    the answer, else the tree is built.
    """
    from . import trees

    rank = trop_rank(a, bound)
    if rank > 2:
        return BarvinokRecord(False, "rank_too_high", rank, None, None)
    tree = trees.known_rank2_tree(a)
    if not trees.is_caterpillar(tree):
        return BarvinokRecord(False, "tree_not_caterpillar", rank, tree, None)
    b, c = _caterpillar_witness(a, tree)
    return BarvinokRecord(True, "caterpillar", rank, tree, (b, c), caterpillar=True)


def _witness_grid(a: TropMatrix, tree):
    """The matrix and the tree's caterpillar spine on one int grid, over
    U = 2 * lcm(scale, tree.unit): (U, the entries times U, each node's
    spine offset times U).  Every offset there is even, and so is every
    entry, so half an offset, an edge midpoint and half an entry are ints."""
    scale, grid = a.as_int_grid()
    big = 2 * lcm(scale, tree.unit)
    ks, ku = big // scale, big // tree.unit
    ga = [[x * ks for x in row] for row in grid]
    spine = {x: d * ku for x, d in tree.spine_offsets().items()}
    return big, ga, spine


def _check_product(b, c, want, message):
    """Raise AssertionError(message) unless the int factors b (rows of two)
    and c (two rows) multiply, min-plus, to the int rows `want`.  The raise
    is explicit, so python -O keeps the check."""
    c0, c1 = c
    for (x0, x1), row in zip(b, want):
        for y0, y1, w in zip(c0, c1, row):
            if min(x0 + y0, x1 + y1) != w:
                raise AssertionError(message)


def _on_grid(rows, big: int) -> TropMatrix:
    return TropMatrix(tuple(tuple(Fraction(x, big) for x in row) for row in rows), False)


def _caterpillar_witness(a: TropMatrix, tree):
    big, ga, spine = _witness_grid(a, tree)
    # half spine coordinates of the row rays (p) and the columns (q)
    p = [spine[tree.leaf_node("red", i + 1)] // 2 for i in range(a.rows)]
    q = [spine[tree.leaf_node("blue", j + 1)] // 2 for j in range(a.cols)]
    # Gauge: a_ij = c_i + c'_j - |p_i - q_j|, with c'_0 = 0.
    c = [row[0] + abs(pi - q[0]) for row, pi in zip(ga, p)]
    cp = [x + abs(p[0] - qj) - c[0] for x, qj in zip(ga[0], q)]
    b = [(ci - pi, ci + pi) for ci, pi in zip(c, p)]
    cmat = ([x + qj for x, qj in zip(cp, q)], [x - qj for x, qj in zip(cp, q)])
    _check_product(b, cmat, ga, "witness must reproduce the matrix")
    return _on_grid(b, big), _on_grid(cmat, big)


@recorded
def sym_barvinok_rank2(a: TropMatrix, bound: int = MAX_ENUMERATION_BOUND) -> BarvinokRecord:
    """Decide symmetric Barvinok rank <= 2 with a witness B, A = B ⊙ B^T:
    barvinok_rank2's rank gate, then sym_tree_barvinok."""
    a = a.as_symmetric()
    rank = trop_rank(a, bound)
    if rank > 2:
        return BarvinokRecord(False, "rank_too_high", rank, None, None)
    return sym_tree_barvinok(a, rank)


def sym_tree_barvinok(asym: TropMatrix, rank: int) -> BarvinokRecord:
    """The symmetric Barvinok test of a symmetric matrix of tropical rank
    `rank` <= 2, read off its tree without a rank scan: it holds exactly
    when the symbic tree is a caterpillar whose color-swap automorphism
    fixes a single point, and the two factor columns are its two sides."""
    from . import trees

    tree = trees.known_rank2_tree(asym)
    report = trees.symbic_classify(tree)
    if report.kind != "symbic":
        return BarvinokRecord(False, report.kind, rank, tree, None, report)
    if not trees.is_caterpillar(tree):
        return BarvinokRecord(False, "tree_not_caterpillar", rank, tree, None, report)
    if not report.one_fixed_point:
        return BarvinokRecord(False, "fixed_path_not_point", rank, tree, None, report, True)
    b = _sym_caterpillar_witness(asym, tree, report)
    return BarvinokRecord(True, "one_fixed_point_caterpillar", rank, tree, b, report, True)


def _sym_caterpillar_witness(a: TropMatrix, tree, report):
    big, ga, spine = _witness_grid(a, tree)
    if report.fixed_nodes:
        center = spine[report.fixed_nodes[0]]
    else:
        u, v = report.swapped_edge
        center = (spine[u] + spine[v]) // 2
    x = [spine[tree.leaf_node("blue", i + 1)] - center for i in range(a.rows)]
    ref = next((xi > 0 for xi in x if xi), True)
    rows = []
    for i, xi in enumerate(x):
        near = ga[i][i] // 2
        far = near + abs(xi)
        rows.append((near, far) if xi == 0 or (xi > 0) == ref else (far, near))
    _check_product(rows, tuple(zip(*rows)), ga, "symmetric witness must reproduce the matrix")
    return _on_grid(rows, big)
