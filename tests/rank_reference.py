"""The rank scans as troplift ran them before rank <= 2 was read off the
rank-2 tree: every k x k minor of each size tested in turn, the principal
ones by their classes in the symmetric scan, from size 1 up.  They are the
references the tree-backed trop_rank and sym_trop_rank are checked
against, by the hypothesis tests and by tests/census.py.  They call the
determinants' bodies (__wrapped__) rather than read a stored result.

Below them, the plain determinant as the Fraction loop over all n!
permutations, the argmin signs of a minor read off it, and the
positive-generator property of the 3 x 3 minors built on those signs,
which share no code with the grid scans."""

from fractions import Fraction
from itertools import combinations, permutations

from samples import submatrix
from troplift.config import MAX_ENUMERATION_BOUND
from troplift.errors import SizeLimit
from troplift.monomials import SignedMonomialClass
from troplift.tropical import _grid_nonsingular, _grid_sym_nonsingular, sym_trop_det, trop_det
from troplift.tropmat import TropMatrix


def ref_scan(a: TropMatrix, bound: int, principal) -> int:
    """Largest size of a nonsingular square submatrix, by an ascending scan
    that stops at the first size with none.  `principal`, when given, tests
    the principal subgrids in place of the plain test; a symmetric matrix
    tests one minor of each transposed pair; a square matrix's full-size
    minor is its determinant's tie."""
    _, grid = a.as_int_grid()
    d, n = a.rows, a.cols
    rank = 0
    for k in range(1, min(d, n) + 1):
        if k > bound:
            raise SizeLimit(f"rank certification needs {k} <= bound {bound}")
        if k == d == n:
            det = trop_det if principal is None else sym_trop_det
            return rank if det.__wrapped__(a, bound).tie else k
        col_sets = list(combinations(range(n), k))
        found = False
        for i, rows in enumerate(combinations(range(d), k)):
            for cols in col_sets[i:] if a.symmetric else col_sets:
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


def ref_trop_rank(a: TropMatrix, bound: int = MAX_ENUMERATION_BOUND) -> int:
    return ref_scan(a, bound, None)


def ref_sym_trop_rank(a: TropMatrix, bound: int = MAX_ENUMERATION_BOUND) -> int:
    return ref_scan(a.as_symmetric(), bound, _grid_sym_nonsingular)


def ref_trop_det(a: TropMatrix) -> tuple:
    """(value, argmin classes in permutations order) of a square matrix."""
    n = a.rows
    best, arg = None, []
    for sigma in permutations(range(n)):
        v = sum((a[i, sigma[i]] for i in range(n)), Fraction(0))
        if best is None or v < best:
            best, arg = v, [sigma]
        elif v == best:
            arg.append(sigma)
    return best, tuple(SignedMonomialClass.from_permutation(s, False) for s in arg)


def ref_signs(sub: TropMatrix) -> tuple:
    """The sorted signs of the permutations minimizing a square submatrix."""
    return tuple(sorted({cls.sign for cls in ref_trop_det(sub)[1]}))


def ref_positive_generators_check(a: TropMatrix) -> bool:
    """Every 3 x 3 tropical minor attains its minimum on two monomials of
    opposite signs (the positive-generator property of the 3 x 3 minors)."""
    return all(
        ref_signs(submatrix(a, ri, cj)) == (-1, 1)
        for ri in combinations(range(a.rows), 3)
        for cj in combinations(range(a.cols), 3)
    )
