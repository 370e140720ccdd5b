"""Bundled example inputs, writable as JSON files from the CLI."""

from __future__ import annotations

from . import jsonio
from .errors import UnknownFixture
from .newton import table2_rows
from .tropmat import TropMatrix, trop_mat_mul

FIXTURE_NAMES = (
    "eq1",
    "fig2a",
    "fig3b",
    "fig3c",
    "fig4a",
    "ex52",
    "table2",
    "cocircuit-ag23",
)


def _mirror_product(rows) -> TropMatrix:
    m1 = TropMatrix.make(rows)
    prod = trop_mat_mul(m1, m1.transpose())
    return TropMatrix.make(prod.entries, symmetric=True)


def cocircuit_fixture() -> TropMatrix:
    """Cocircuit matrix of the ternary affine plane: 9 points, 12 lines.

    Entry (i, j) is 0 when point i avoids line j (so lies in cocircuit j)
    and 1 otherwise; every column has exactly six zeros.
    """
    points = [(x, y) for x in range(3) for y in range(3)]
    directions = [(0, 1), (1, 0), (1, 1), (1, 2)]
    lines = []
    for d in directions:
        starts = set()
        for p in points:
            line = frozenset(((p[0] + t * d[0]) % 3, (p[1] + t * d[1]) % 3) for t in range(3))
            starts.add(line)
        lines.extend(sorted(starts, key=sorted))
    assert len(lines) == 12
    ent = [[0 if p not in line else 1 for line in lines] for p in points]
    return TropMatrix.make(ent)


def fixture(name: str):
    """Return the named example as an in-memory object."""
    if name == "eq1":
        # diagonal a, b, c with a = b = c = 1: tropical rank 2, symmetric
        # tropical rank 3, tripod tree
        return TropMatrix.make([[1, 0, 0], [0, 1, 0], [0, 0, 1]], symmetric=True)
    if name == "fig2a":
        # one-fixed-point caterpillar, distances d2 = 2, d3 = 1
        return TropMatrix.make([[0, 2, 1], [2, 0, 0], [1, 0, 0]], symmetric=True)
    if name == "fig3b":
        return _mirror_product([[0, 3], [3, 0], [2, 0], [1, 0]])
    if name == "fig3c":
        return _mirror_product([[0, 3], [3, 0], [2, 0], [0, 1]])
    if name == "fig4a":
        # fully fixed spine, distances d2 = 3, d3 = 2, d4 = 1
        return TropMatrix.make(
            [[0, 0, 0, 0], [0, 3, 2, 1], [0, 2, 2, 1], [0, 1, 1, 1]], symmetric=True
        )
    if name == "ex52":
        # symmetric singular: in the positive part over C but not over R
        return TropMatrix.make(
            [[2, 0, 1, 0], [0, 2, 0, 2], [1, 0, 2, 0], [0, 2, 0, 1]], symmetric=True
        )
    if name == "table2":
        return table2_rows()
    if name == "cocircuit-ag23":
        return cocircuit_fixture()
    raise UnknownFixture(f"unknown fixture {name!r}; choose from {FIXTURE_NAMES}")


def fixture_json(name: str):
    obj = fixture(name)
    if name == "table2":
        return [jsonio.encode_class(cls) for cls in obj]
    return jsonio.encode_matrix(obj)
