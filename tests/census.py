"""An exhaustive census of a box of symmetric matrices.

The paper's results are universal statements about the four sets in the
four modes, and every verdict is invariant under relabelling rows and
columns together, so a box of small integer matrices is covered by one
matrix per orbit.  For each (variety, mode) the census asks the member_*
verdict and runs the lift the CLI would issue: a true verdict must come
with a valid certificate, all-positive in C+ and R+, and a false one with
a NegativeResult.  A corank1 certificate must also be exact: no entry is
truncated and its determinant vanishes exactly.  Anything else is a gap.

    PYTHONPATH=src python tests/census.py N K

runs the box of N x N matrices with entries 0..K-1.  It prints the verdict
and outcome counts per (variety, mode), checks input by input that the C
verdict equals the R verdict for every variety and that the sym_rank2 C+
verdict equals the R+ one, checks input by input that trop_rank and
sym_trop_rank equal the full scans of tests/rank_reference.py, counts the
sym_corank1 inputs with C+ true and R+ false (the paper's C+ != R+), lists
every corank1 certificate that is not exact, and, for a box with a gap file
in GAP_FILES, compares its gaps with that file.  It exits 1 when a check
fails.
After a fix closes a gap, write the new gaps(symmetric_orbits(N, range(K)))
to the file of each box it changes.
"""

import json
import sys
from collections import Counter
from itertools import permutations, product
from pathlib import Path

from rank_reference import ref_sym_trop_rank, ref_trop_rank
from troplift import cli, membership, tropical
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
# each rank the program computes, by its name in tropical, and its full scan
RANKS = (("trop_rank", ref_trop_rank), ("sym_trop_rank", ref_sym_trop_rank))
# the gap rows of a box, in census order, by (N, K): one file per box
GAP_FILES = {
    (4, 3): Path(__file__).with_name("census_gaps.json"),
    (5, 2): Path(__file__).with_name("census_gaps_5x5_01.json"),
}


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


def _exact(cert) -> bool:
    """No entry of the certificate is truncated, and its last step finds
    the determinant exactly zero."""
    step = cert.transcript[-1]
    exact = all(x.trunc is None for row in cert.lift for x in row)
    return exact and (step["check"], step["detail"]) == ("determinant_vanishes", "exactly zero")


def ask(a: TropMatrix, variety: str, mode: str) -> tuple:
    """(verdict, outcome) of one question: outcome is "certificate" for a
    valid certificate of the mode's positivity, exact for corank1,
    "refused" for a NegativeResult, else the name of what the lift raised
    or returned."""
    cfg = Config()
    verdict = MEMBERS[variety](a, mode, cfg.enumeration_bound).verdict
    try:
        cert = cli._run_lift(a, variety, mode, cfg)
    except NegativeResult:
        return verdict, "refused"
    except TropliftError as exc:
        return verdict, type(exc).__name__
    positive = cert.positivity == "all-positive" or not mode.endswith("+")
    if not (cert.valid and positive):
        return verdict, "invalid_certificate"
    if variety == "corank1" and not _exact(cert):
        return verdict, "inexact_certificate"
    return verdict, "certificate"


def answers(a: TropMatrix) -> dict:
    """(verdict, outcome) of each of the 16 questions, by (variety, mode)."""
    return {(variety, mode): ask(a, variety, mode) for variety in MEMBERS for mode in MODES}


def rows_of(a: TropMatrix) -> list:
    return [[str(x) for x in row] for row in a.entries]


def _gap_rows(a: TropMatrix, answered: dict) -> list:
    return [
        {"rows": rows_of(a), "variety": variety, "mode": mode, "verdict": verdict, "outcome": outcome}
        for (variety, mode), (verdict, outcome) in answered.items()
        if outcome != ("certificate" if verdict else "refused")
    ]


def gaps(box) -> list:
    """The matrix rows, variety, mode, verdict and outcome of every question
    whose lift does not match its verdict."""
    return [row for a in box for row in _gap_rows(a, answers(a))]


def rank_mismatches(a: TropMatrix) -> list:
    """(name, rank, full scan's rank) of each rank that differs from its
    full scan, both at the default bound, as the membership questions
    pass it."""
    bound = Config().enumeration_bound
    found = []
    for name, ref in RANKS:
        got, want = getattr(tropical, name)(a, bound), ref(a, bound)
        if got != want:
            found.append((name, got, want))
    return found


def known_gaps(n: int, k: int) -> list:
    return json.loads(GAP_FILES[n, k].read_text())


def main(argv) -> int:
    n, k = (int(x) for x in argv)
    counts = Counter()
    found, broken, inexact, ranks = [], [], [], []
    split = 0
    same = [(variety, "C", "R") for variety in MEMBERS] + [("sym_rank2", "C+", "R+")]
    for a in symmetric_orbits(n, range(k)):
        answered = answers(a)
        counts.update(answered.items())
        found += _gap_rows(a, answered)
        broken += [
            (rows_of(a), variety, one, other)
            for variety, one, other in same
            if answered[variety, one][0] != answered[variety, other][0]
        ]
        inexact += [
            (rows_of(a), mode)
            for mode in MODES
            if answered["corank1", mode][1] == "inexact_certificate"
        ]
        ranks += [(rows_of(a), *wrong) for wrong in rank_mismatches(a)]
        split += answered["sym_corank1", "C+"][0] and not answered["sym_corank1", "R+"][0]
    for key in ((variety, mode) for variety in MEMBERS for mode in MODES):
        tally = sorted((answer, count) for (at, answer), count in counts.items() if at == key)
        print(*key, *(f"{verdict}/{outcome}: {count}" for (verdict, outcome), count in tally))
    for rows, variety, one, other in broken:
        print(f"{variety} {one} and {other} verdicts differ on {rows}")
    for rows, mode in inexact:
        print(f"corank1 {mode} certificate is not exact on {rows}")
    for rows, name, got, want in ranks:
        print(f"{name} {got} differs from the full scan's {want} on {rows}")
    print(f"sym_corank1 C+ true and R+ false on {split} inputs")
    print(f"{len(found)} gap rows")
    ok = not broken and not inexact and not ranks
    if (n, k) in GAP_FILES:
        matches = found == known_gaps(n, k)
        print("gaps", "equal" if matches else "differ from", GAP_FILES[n, k].name)
        ok = ok and matches
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
