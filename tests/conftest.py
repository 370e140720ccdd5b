"""Shared test setup: every test starts with an empty analysis store and
without TROPLIFT_* configuration from the environment.  Also the 7x7
symmetric inputs that several test files share, and the brute-force hull
of the 4x4 symmetric determinant's exponent points and the cocircuit
fixture's tropical rank, each computed once."""

import sys
import time

import pytest

from oracle import brute_hull
from troplift import tropical
from troplift.fixtures import cocircuit_fixture
from troplift.monomials import sym_det_monomials


def entries(name: str) -> int:
    """How many entries of the analysis named `name` the store holds."""
    return sum(key[0] == name for record in tropical._RECORDS.values() for key in record)


def _sym7_a():
    rows = [[10] * 7 for _ in range(7)]
    for i, j in ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)):
        rows[i][j] = rows[j][i] = 0
    return rows


# Symmetric 7x7 ties on one lattice length 2 edge whose midpoint holds a
# triangle ahead of its even cycle.  A is 0 on the triangle {0, 1, 2} and on
# the 4-cycle 3-4-5-6 and 10 elsewhere: its minors agree in sign, so R+
# holds and both lifts exist.  B's midpoint is the triangle (0 1 4) with the
# 4-cycle (2 3 6 5), whose minors are sign-forced opposite: R+ fails, and
# the R lift exists.
SYM7_A = _sym7_a()
SYM7_B = [
    [5, 0, 3, 2, 0, 4, 5],
    [0, 5, 3, 4, 0, 2, 5],
    [3, 3, 4, 0, 2, 0, 1],
    [2, 4, 0, 4, 1, 3, 0],
    [0, 0, 2, 1, 6, 5, 4],
    [4, 2, 0, 3, 5, 4, 0],
    [5, 5, 1, 0, 4, 0, 6],
]


@pytest.fixture(autouse=True)
def _empty_analysis_store():
    """No test can pass on a result another test computed.  The monomial
    classes (sym_class's memo, plain_class's, the enumeration's lists) are
    inputs, not results, and stay warm."""
    tropical.clear()


@pytest.fixture
def calls(monkeypatch):
    """count(module, name) puts a counter in place of module.name under
    every troplift module attribute that holds it, as the benchmark's
    tracer does, and returns the list that each call appends its
    positional arguments to.  A call that the store answers is a hit, so
    hits are calls minus tropical.FILLS[name]."""

    def count(module, name):
        orig, seen = getattr(module, name), []

        def counted(*args, **kwargs):
            seen.append(args)
            return orig(*args, **kwargs)

        for mod in [m for key, m in sys.modules.items() if key.split(".")[0] == "troplift"]:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, key, counted)
        return seen

    return count


@pytest.fixture(autouse=True)
def _no_env_config(monkeypatch):
    """Seed, bound and format come from flags or defaults, so golden bytes
    do not depend on the shell a test runs in."""
    for key in ("TROPLIFT_SEED", "TROPLIFT_MAX_N", "TROPLIFT_FORMAT"):
        monkeypatch.delenv(key, raising=False)


@pytest.fixture(scope="session")
def hull4():
    """brute_hull of the 17 exponent points (upper triangles, row by row)
    of sym_det_monomials(4): (vertex ids, edge id pairs) as tuples.  It is
    the reference the fast vertex and edge tests are checked against, and
    it reads no analysis, so the per-test store reset does not touch it."""
    pts = [
        tuple(c.exponent[i][j] for i in range(4) for j in range(i, 4))
        for c in sym_det_monomials(4)
    ]
    vertices, edges = brute_hull(pts)
    return tuple(vertices), tuple(tuple(e) for e in edges)


@pytest.fixture(scope="session")
def cocircuit_rank():
    """(tropical rank, seconds taken) of the 9x12 cocircuit fixture.  The
    scan takes about a second, and three tests check it.  It runs the
    body of trop_rank (__wrapped__), so it neither reads a rank another
    test left in the store nor leaves one behind."""
    start = time.perf_counter()
    rank = tropical.trop_rank.__wrapped__(cocircuit_fixture())
    return rank, time.perf_counter() - start
