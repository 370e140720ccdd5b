"""An exhaustive census of a box of symmetric matrices.

The paper's results are universal statements about the four sets in the
four modes, and every verdict is invariant under relabelling rows and
columns together, so a box of small integer matrices is covered by one
matrix per orbit.  For each (variety, mode) the census asks the member_*
verdict and runs the lift the CLI would issue: a true verdict must come
with a valid certificate, all-positive in C+ and R+, and a false one with
a NegativeResult.  Anything else is a gap.
"""

from itertools import permutations, product

from troplift import cli, membership
from troplift.config import Config
from troplift.errors import NegativeResult, TropliftError
from troplift.tropmat import TropMatrix

MEMBERS = {
    "rank2": membership.member_rank2,
    "sym_rank2": membership.member_sym_rank2,
    "corank1": membership.member_corank1,
    "sym_corank1": membership.member_sym_corank1,
}
MODES = ("C", "R", "C+", "R+")


def _cells(n: int) -> list:
    return [(i, j) for i in range(n) for j in range(i, n)]


def _relabellings(n: int) -> list:
    """For each relabelling p of 0..n-1, the upper-triangle position that
    each upper-triangle cell of the relabelled matrix reads."""
    cells = _cells(n)
    where = {cell: k for k, cell in enumerate(cells)}
    return [
        tuple(where[min(p[i], p[j]), max(p[i], p[j])] for i, j in cells)
        for p in permutations(range(n))
    ]


def symmetric_orbits(n: int, values) -> list:
    """One symmetric n x n matrix per orbit of simultaneous row and column
    relabelling, with entries from `values`: the one whose upper triangle,
    read row by row, is least among its orbit's."""
    cells = _cells(n)
    maps = _relabellings(n)
    out = []
    for upper in product(sorted(values), repeat=len(cells)):
        if all(tuple(upper[k] for k in m) >= upper for m in maps):
            rows = [[0] * n for _ in range(n)]
            for (i, j), v in zip(cells, upper):
                rows[i][j] = rows[j][i] = v
            out.append(TropMatrix.make(rows, symmetric=True))
    return out


def _cycles(m: tuple) -> int:
    """The number of cycles of the permutation m of range(len(m))."""
    seen = set()
    count = 0
    for start in range(len(m)):
        count += start not in seen
        k = start
        while k not in seen:
            seen.add(k)
            k = m[k]
    return count


def orbit_count(n: int, k: int) -> int:
    """The number of orbits of symmetric n x n matrices over k values, by
    Burnside's lemma: the mean over relabellings of k ** (cell cycles)."""
    maps = _relabellings(n)
    return sum(k ** _cycles(m) for m in maps) // len(maps)


def ask(a: TropMatrix, variety: str, mode: str) -> tuple:
    """(verdict, outcome) of one question: outcome is "certificate" for a
    valid certificate of the mode's positivity, "refused" for a
    NegativeResult, else the name of what the lift raised or returned."""
    cfg = Config()
    verdict = MEMBERS[variety](a, mode, cfg.enumeration_bound).verdict
    try:
        cert = cli._run_lift(a, variety, mode, cfg)
    except NegativeResult:
        return verdict, "refused"
    except TropliftError as exc:
        return verdict, type(exc).__name__
    positive = cert.positivity == "all-positive" or not mode.endswith("+")
    return verdict, "certificate" if cert.valid and positive else "invalid_certificate"


def gaps(box) -> list:
    """(matrix rows, variety, mode, verdict, outcome) of every question
    whose lift does not match its verdict."""
    out = []
    for a in box:
        for variety in MEMBERS:
            for mode in MODES:
                verdict, outcome = ask(a, variety, mode)
                if outcome != ("certificate" if verdict else "refused"):
                    rows = [[str(x) for x in row] for row in a.entries]
                    out.append((rows, variety, mode, verdict, outcome))
    return out
