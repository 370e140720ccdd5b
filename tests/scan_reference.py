"""The permutation scan as troplift ran it before the scan tables: one
loop over permutations(range(n)) that adds each permutation's cells of a
square int grid (row tuples) and keeps the least sum and the list of the
permutations attaining it, in permutations order.  It is the reference
that tropical._perm_argmin, its written-out 4 x 4 and 5 x 5 sums and its
row-0 expansion above 5 are checked against, value and argmin list in
order."""

from itertools import permutations


def ref_perm_argmin(sub) -> tuple[int, list]:
    """Least permutation sum of a square int grid and its minimisers."""
    best = None
    arg: list = []
    for sigma in permutations(range(len(sub))):
        v = 0
        for i, s in enumerate(sigma):
            v += sub[i][s]
        if best is None or v < best:
            best = v
            arg = [sigma]
        elif v == best:
            arg.append(sigma)
    return best, arg


def subgrid(grid, rows, cols) -> list:
    """The row tuples of a grid on rows x cols."""
    return [tuple(grid[r][c] for c in cols) for r in rows]
