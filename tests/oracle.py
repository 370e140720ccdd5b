"""Brute-force oracles: slow, independent second opinions.

These validate the fast paths on small instances: exhaustive min-plus
factorization searches reduced to difference-constraint or LP feasibility,
and an exact convex hull by LP membership.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from linprog import OPTIMAL, lp_feasible, lp_maximize
from troplift.errors import SizeLimit
from troplift.tropmat import TropMatrix

BRUTE_LIMIT = 4


class _DiffConstraints:
    """Difference constraints x_v - x_u <= w, feasibility by negative-cycle test."""

    def __init__(self, nvars: int):
        self.n = nvars
        self.edges: list = []

    def snapshot(self) -> int:
        return len(self.edges)

    def rollback(self, mark: int):
        del self.edges[mark:]

    def add(self, u: int, v: int, w):
        self.edges.append((u, v, w))

    def feasible(self) -> bool:
        dist = [0] * self.n
        for it in range(self.n):
            changed = False
            for u, v, w in self.edges:
                if dist[u] + w < dist[v]:
                    dist[v] = dist[u] + w
                    changed = True
            if not changed:
                return True
        return not changed


def brute_barvinok2(a: TropMatrix) -> bool:
    """Exhaustive search for A = B ⊙ C with two inner dimensions.

    Enumerates which inner index is tight in each cell; each choice is a
    difference-constraint system over B entries and negated C entries.
    """
    d, n = a.rows, a.cols
    if d > BRUTE_LIMIT or n > BRUTE_LIMIT:
        raise SizeLimit(f"brute factorization capped at {BRUTE_LIMIT}")
    scale, grid = a.as_int_grid()
    # variables: b[i][k] -> i*2+k ; z[k][j] = -c[k][j] -> 2d + j*2+k
    nvars = 2 * d + 2 * n
    sys = _DiffConstraints(nvars)

    def bvar(i, k):
        return 2 * i + k

    def zvar(k, j):
        return 2 * d + 2 * j + k

    cells = [(i, j) for i in range(d) for j in range(n)]

    def place(idx: int) -> bool:
        if idx == len(cells):
            return True
        i, j = cells[idx]
        w = grid[i][j]
        for k in (0, 1):
            mark = sys.snapshot()
            # tight: b_ik - z_kj = w ; slack: b_ik' - z_k'j >= w
            sys.add(zvar(k, j), bvar(i, k), w)
            sys.add(bvar(i, k), zvar(k, j), -w)
            o = 1 - k
            sys.add(bvar(i, o), zvar(o, j), -w)
            if sys.feasible() and place(idx + 1):
                return True
            sys.rollback(mark)
        return False

    return place(0)


def brute_sym_barvinok2(a: TropMatrix) -> bool:
    """Exhaustive search for A = B ⊙ B^T, B with two columns (LP feasibility).

    Depth-first over which column is tight per cell, checking the partial
    linear system at every step; swapping B's columns is broken by fixing
    the first cell's choice.
    """
    n = a.rows
    if n > BRUTE_LIMIT:
        raise SizeLimit(f"brute factorization capped at {BRUTE_LIMIT}")
    scale, grid = a.as_int_grid()
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    nb = 2 * n  # b[i][k] -> 2i + k, each split into +/- parts for the LP

    def feasible(choices) -> bool:
        nslack = len(choices)
        total = 2 * nb + nslack
        rows, rhs = [], []
        s = 0
        for (i, j), k in zip(cells, choices):
            tight = [0] * total
            tight[2 * (2 * i + k)] += 1
            tight[2 * (2 * i + k) + 1] -= 1
            tight[2 * (2 * j + k)] += 1
            tight[2 * (2 * j + k) + 1] -= 1
            rows.append(tight)
            rhs.append(grid[i][j])
            o = 1 - k
            slack = [0] * total
            slack[2 * (2 * i + o)] += 1
            slack[2 * (2 * i + o) + 1] -= 1
            slack[2 * (2 * j + o)] += 1
            slack[2 * (2 * j + o) + 1] -= 1
            slack[2 * nb + s] = -1  # surplus variable: value - rhs >= 0
            rows.append(slack)
            rhs.append(grid[i][j])
            s += 1
        return lp_feasible(rows, rhs)

    def place(idx, choices) -> bool:
        if idx == len(cells):
            return True
        options = (0,) if idx == 0 else (0, 1)
        for k in options:
            choices.append(k)
            if feasible(choices) and place(idx + 1, choices):
                return True
            choices.pop()
        return False

    return place(0, [])


def _on_segment(p, u, v) -> bool:
    """Exact test: p lies on the closed segment [u, v]."""
    dv = [b - a for a, b in zip(u, v)]
    dp = [b - a for a, b in zip(u, p)]
    t = None
    for x, y in zip(dv, dp):
        if x == 0:
            if y != 0:
                return False
        else:
            s = Fraction(y, x) if not isinstance(y, Fraction) else y / x
            if t is None:
                t = s
            elif t != s:
                return False
    if t is None:
        return p == u
    return 0 <= t <= 1


def brute_hull(points):
    """Exact convex hull of few rational points: (vertex ids, edge id pairs).

    A point is a vertex when it is not a convex combination of the others;
    a vertex pair (u, v) is an edge when no representation of its midpoint
    puts weight outside the points of the segment [u, v].
    """
    pts = [tuple(Fraction(x) for x in p) for p in points]
    if len(pts) > 40:
        raise SizeLimit("hull oracle capped at 40 points")
    dim = len(pts[0])
    if dim > 12:
        raise SizeLimit("hull oracle capped at dimension 12")
    m = len(pts)
    vertices = []
    for i in range(m):
        others = [p for k, p in enumerate(pts) if k != i]
        rows = [[p[c] for p in others] for c in range(dim)]
        rows.append([1] * len(others))
        rhs = list(pts[i]) + [1]
        if not lp_feasible(rows, rhs):
            vertices.append(i)
    edges = []
    for i, j in combinations(vertices, 2):
        mid = tuple((a + b) / 2 for a, b in zip(pts[i], pts[j]))
        off_segment = [k for k in range(m) if not _on_segment(pts[k], pts[i], pts[j])]
        rows = [[pts[k][c] for k in range(m)] for c in range(dim)]
        rows.append([1] * m)
        rhs = list(mid) + [1]
        objective = [1 if k in off_segment else 0 for k in range(m)]
        status, value = lp_maximize(objective, rows, rhs)
        assert status == OPTIMAL, "midpoint of two hull points is always representable"
        if value == 0:
            edges.append((i, j))
    return vertices, edges

