"""Tropical determinants, rank notions, and Barvinok factorizations.

All minima are exhaustive enumerations over permutations (or monomial
classes for the symmetric determinant) on an integer grid: entries are
rescaled by their denominator lcm, so the hot loops add ints.  A symmetric
class value is the int sum of e * grid[i][j] over the class's precomputed
support, and a minimum goes back to a Fraction only once, as best / scale.
Enumeration refuses inputs above the configured bound rather than risking
a wrong uniqueness verdict.

The determinants, the ranks and the two Barvinok tests, like
trees.tree_from_rank2 and membership's edge table, are memoised on the
frozen TropMatrix (which hashes and builds its grid once) and the bound,
so the sixteen membership questions asked of one matrix compute each
once.  Callers pass the bound positionally: f(a), f(a, 8) and
f(a, bound=8) are three memo keys.  Raised errors are not remembered; a
Barvinok test's rank_too_high record is returned, so it is.  Newton
polytope edges have one memo of their own, per exponent pair (newton).
Nothing returned aliases mutable memo state: results, Barvinok records
and edges are immutable, trees and witnesses are never written, and the
payload dicts are membership's, built per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from typing import NamedTuple

from .config import MAX_ENUMERATION_BOUND
from .errors import DimensionMismatch, SizeLimit
from .monomials import plain_class, symmetric_tables
from .tropmat import TropMatrix, trop_mat_mul

_MEMO_SIZE = 32  # matrices remembered per analysis


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


@lru_cache(maxsize=_MEMO_SIZE)
def trop_det(a: TropMatrix, bound: int = MAX_ENUMERATION_BOUND) -> TropDetResult:
    """Minimum over all permutation monomials, with the full argmin set."""
    _check_square(a, bound)
    n = a.rows
    scale, grid = a.as_int_grid()
    best = None
    arg: list = []
    for sigma in permutations(range(n)):
        v = sum(map(tuple.__getitem__, grid, sigma))
        if best is None or v < best:
            best = v
            arg = [sigma]
        elif v == best:
            arg.append(sigma)
    classes = tuple(plain_class(s) for s in arg)
    return TropDetResult(Fraction(best, scale), classes, len(arg) >= 2)


def _sym_argmin(grid, n: int) -> tuple[int, list]:
    """Least class value of the n x n symmetric determinant on an int grid
    (upper triangle read) and the classes attaining it."""
    tables = symmetric_tables(n)
    best = None
    arg: list = []
    for cls, support in zip(tables.classes, tables.supports):
        v = 0
        for i, j, e in support:
            v += e * grid[i][j]
        if best is None or v < best:
            best = v
            arg = [cls]
        elif v == best:
            arg.append(cls)
    return best, arg


@lru_cache(maxsize=_MEMO_SIZE)
def sym_trop_det(a: TropMatrix, bound: int = MAX_ENUMERATION_BOUND) -> TropDetResult:
    """Minimum over monomial classes of the symmetric determinant."""
    _check_square(a, bound)
    a = a.as_symmetric()
    scale, grid = a.as_int_grid()
    best, arg = _sym_argmin(grid, a.rows)
    return TropDetResult(Fraction(best, scale), tuple(arg), len(arg) >= 2)


def _grid_nonsingular(grid, rows, cols) -> bool:
    """Unique-minimum test for the plain tropical determinant of a subgrid."""
    best = None
    hits = 0
    for sigma in permutations(range(len(rows))):
        v = 0
        for i, s in enumerate(sigma):
            v += grid[rows[i]][cols[s]]
        if best is None or v < best:
            best = v
            hits = 1
        elif v == best:
            hits += 1  # a tie so far; a later, lower value still resets it
    return hits == 1


def _grid_sym_nonsingular(grid, idx) -> bool:
    """Unique-minimum test for the symmetric determinant of a principal subgrid."""
    _, arg = _sym_argmin([[grid[i][j] for j in idx] for i in idx], len(idx))
    return len(arg) == 1


def _rank(a: TropMatrix, bound: int, principal) -> int:
    """Largest size of a nonsingular square submatrix, by an ascending scan
    that stops at the first size with none.  `principal`, when given, tests
    the principal subgrids in place of the plain test."""
    _, grid = a.as_int_grid()
    d, n = a.rows, a.cols
    rank = 0
    for k in range(1, min(d, n) + 1):
        if k > bound:
            raise SizeLimit(f"rank certification needs {k} <= bound {bound}")
        found = False
        for rows in combinations(range(d), k):
            for cols in combinations(range(n), k):
                if principal is not None and rows == cols:
                    found = principal(grid, rows)
                else:
                    found = _grid_nonsingular(grid, rows, cols)
                if found:
                    break
            if found:
                break
        if not found:
            return rank
        rank = k
    return rank


@lru_cache(maxsize=_MEMO_SIZE)
def trop_rank(a: TropMatrix, bound: int = MAX_ENUMERATION_BOUND) -> int:
    """Largest size of a tropically nonsingular square submatrix.

    Tropically nonsingular matrices contain nonsingular submatrices of
    every smaller size, so the search ascends and stops at the first size
    with no nonsingular submatrix; sym_trop_rank shares the scan.
    """
    return _rank(a, bound, None)


@lru_cache(maxsize=_MEMO_SIZE)
def sym_trop_rank(a: TropMatrix, bound: int = MAX_ENUMERATION_BOUND) -> int:
    """Largest nonsingular submatrix size, using the symmetric determinant
    (class ties) on principal submatrices and the plain one elsewhere; the
    ascending scan is trop_rank's."""
    a = a.as_symmetric()
    return _rank(a, bound, _grid_sym_nonsingular)


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


@lru_cache(maxsize=_MEMO_SIZE)
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
    tree = trees._rank2_tree(a)
    if not trees.is_caterpillar(tree):
        return BarvinokRecord(False, "tree_not_caterpillar", rank, tree, None)
    b, c = _caterpillar_witness(a, tree)
    assert trop_mat_mul(b, c).entries == a.entries, "witness must reproduce the matrix"
    return BarvinokRecord(True, "caterpillar", rank, tree, (b, c), caterpillar=True)


def _caterpillar_witness(a: TropMatrix, tree):
    coord = tree.spine_coordinates()
    d, n = a.rows, a.cols
    p = [coord[tree.leaf_node("red", i + 1)] for i in range(d)]
    q = [coord[tree.leaf_node("blue", j + 1)] for j in range(n)]
    # Gauge: a_ij = c_i + c'_j - |p_i - q_j| / 2, with c'_0 = 0.
    c = [a[i, 0] + abs(p[i] - q[0]) / 2 for i in range(d)]
    cp = [a[0, j] + abs(p[0] - q[j]) / 2 - c[0] for j in range(n)]
    b = TropMatrix.make([[c[i] - p[i] / 2, c[i] + p[i] / 2] for i in range(d)])
    cmat = TropMatrix.make([[cp[j] + q[j] / 2 for j in range(n)], [cp[j] - q[j] / 2 for j in range(n)]])
    return b, cmat


@lru_cache(maxsize=_MEMO_SIZE)
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

    tree = trees._rank2_tree(asym)
    report = trees.symbic_classify(tree)
    if report.kind != "symbic":
        return BarvinokRecord(False, report.kind, rank, tree, None, report)
    if not trees.is_caterpillar(tree):
        return BarvinokRecord(False, "tree_not_caterpillar", rank, tree, None, report)
    if not report.one_fixed_point:
        return BarvinokRecord(False, "fixed_path_not_point", rank, tree, None, report, True)
    b = _sym_caterpillar_witness(asym, tree, report)
    assert trop_mat_mul(b, b.transpose()).entries == asym.entries
    return BarvinokRecord(True, "one_fixed_point_caterpillar", rank, tree, b, report, True)


def _sym_caterpillar_witness(a: TropMatrix, tree, report):
    coord = tree.spine_coordinates()
    n = a.rows
    if report.fixed_nodes:
        center = coord[report.fixed_nodes[0]]
    else:
        u, v = report.swapped_edge
        center = (coord[u] + coord[v]) / 2
    side = []
    dist = []
    for i in range(n):
        x = coord[tree.leaf_node("blue", i + 1)]
        dist.append(abs(x - center))
        side.append(0 if x == center else (1 if x > center else -1))
    shift = [a[i, i] / 2 for i in range(n)]
    ref = next((s for s in side if s != 0), 1)
    rows = []
    for i in range(n):
        if side[i] == 0 or side[i] == ref:
            rows.append([shift[i], shift[i] + dist[i]])
        else:
            rows.append([shift[i] + dist[i], shift[i]])
    return TropMatrix.make(rows)
