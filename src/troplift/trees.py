"""Bicolored metric trees and the rank-2 matrix correspondence.

A tropical rank <= 2 matrix determines a tree: column j sits at the point
x_j given by the column itself (in tropical projective coordinates), the
coordinate ray e_i attaches at the projection rho_i with coordinates
min_j (a_kj - a_ij), and the internal metric is the tropical Hilbert
distance max(u - v) - min(u - v).  Blue leaves mark columns, red leaves
mark rays, leaf edges carry no length.  Reconstruction embeds the marked
points one at a time by their exact pairwise distances (Gromov products
locate each projection), which is the same data as the tie pattern and
slack of the 2x2 tropical minors.  The correspondence runs both ways
(Develin-Santos-Sturmfels 2005, section 6): a matrix has tropical rank
<= 2 exactly when it is, up to scaling, the matrix of a bicolored tree.
So _rank2_tree, kept in tropical's analysis store, is the rank <= 2 test
that trop_rank asks: it returns the tree, or None when a Gromov product
overruns its path, a Hilbert distance is not reproduced, or the tree's
matrix is not the input up to scaling.  Each outcome is an int
comparison, so python -O keeps it.  Callers that know the rank is <= 2
read the same entry through known_rank2_tree, which raises on a None.

Trees are stored as an adjacency map with positive int edge lengths over
one unit (a length w stands for w / unit) plus leaf markings; several
leaves may share a node.  The builder places the points on the matrix's
integer grid doubled, unit = 2 * scale, so every Hilbert distance is even
and every Gromov product an exact int; a tree given rational lengths is
put on the lcm of their denominators.  The public readers (adj,
edge_list, node_distance) divide by the unit once, on the way out, and
return Fractions.  One reader stays
on ints: spine_offsets, a caterpillar's distances over the unit from its
lowest-numbered spine end, from which the Barvinok witnesses and the
spine lift build on their own int grid.  Every traversal
is one breadth-first walk (`_walk`): paths, cut sides, connectivity and
the node distances, which a tree computes once, at construction, and then
only reads.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .config import MAX_ENUMERATION_BOUND
from .errors import InvalidTree, RankTooHigh
from .tropical import recorded, trop_rank
from .tropmat import TropMatrix

RED = "red"
BLUE = "blue"


@dataclass(frozen=True)
class Leaf:
    color: str
    index: int  # 1-based, matching row/column numbering
    node: int


def _walk(adj: dict, start: int, without: int | None = None) -> dict:
    """Breadth-first search from start that never enters without.

    Returns node -> (parent, distance from start) for every node reached.
    """
    out = {start: (None, 0)}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        dx = out[x][1]
        for y, w in adj[x].items():
            if y != without and y not in out:
                out[y] = (x, dx + w)
                queue.append(y)
    return out


class BicoloredTree:
    """Leaves on a metric tree: int edge lengths `_len` over `unit`, and
    the int distance table `_dist` (node -> node -> length), both read
    inside this module; the public readers return Fractions."""

    def __init__(self, nodes: int, adj: dict, leaves: tuple):
        """A tree from rational (Fraction or int) edge lengths, put on the
        lcm of their denominators."""
        unit = lcm(*(w.denominator for nbrs in adj.values() for w in nbrs.values()))
        lengths = {
            u: {v: w.numerator * (unit // w.denominator) for v, w in nbrs.items()}
            for u, nbrs in adj.items()
        }
        self._setup(nodes, lengths, tuple(leaves), unit)

    @classmethod
    def _on_unit(cls, nodes: int, lengths: dict, leaves: tuple, unit: int) -> "BicoloredTree":
        """A tree whose int edge lengths are already over `unit`."""
        tree = cls.__new__(cls)
        tree._setup(nodes, lengths, leaves, unit)
        return tree

    def _setup(self, nodes: int, lengths: dict, leaves: tuple, unit: int):
        if any(w <= 0 for nbrs in lengths.values() for w in nbrs.values()):
            raise InvalidTree("edge lengths must be positive")
        self.nodes = nodes
        self.unit = unit
        self.leaves = leaves
        self._len = lengths
        self._dist = [
            {x: d for x, (_, d) in _walk(lengths, s).items()} for s in range(nodes)
        ]

    @property
    def adj(self) -> dict:
        """Adjacency map with Fraction edge lengths (a fresh dict)."""
        unit = self.unit
        return {
            u: {v: Fraction(w, unit) for v, w in nbrs.items()} for u, nbrs in self._len.items()
        }

    @property
    def red_count(self) -> int:
        return sum(1 for l in self.leaves if l.color == RED)

    @property
    def blue_count(self) -> int:
        return sum(1 for l in self.leaves if l.color == BLUE)

    def leaf_node(self, color: str, index: int) -> int:
        for l in self.leaves:
            if l.color == color and l.index == index:
                return l.node
        raise KeyError(f"no {color} leaf {index}")

    def _edges(self):
        """(u, v, int length) for every edge, u < v, in node order."""
        for u in range(self.nodes):
            for v, w in self._len[u].items():
                if u < v:
                    yield u, v, w

    def edge_list(self) -> list[tuple[int, int, Fraction]]:
        return [(u, v, Fraction(w, self.unit)) for u, v, w in self._edges()]

    def node_distance(self, u: int, v: int) -> Fraction:
        return Fraction(self._dist[u][v], self.unit)

    def spine_offsets(self) -> dict:
        """Int arc length over `unit` of every node of a caterpillar spine,
        measured from its lowest-numbered end: the tree's own distance row,
        so read it and never write it."""
        start = min(u for u in range(self.nodes) if len(self._len[u]) <= 1)
        return self._dist[start]

    def path(self, u: int, v: int) -> list[int]:
        """Nodes on the path from u to v."""
        reached = _walk(self._len, u)
        out = [v]
        while out[-1] != u:
            out.append(reached[out[-1]][0])
        return out[::-1]

    def validate(self):
        """Connectivity plus the two-colors-on-each-side cut condition."""
        if self.nodes == 0:
            raise InvalidTree("empty tree")
        edge_count = sum(map(len, self._len.values()))
        if len(_walk(self._len, 0)) != self.nodes or edge_count != 2 * (self.nodes - 1):
            raise InvalidTree("not a connected acyclic graph")
        for u, v, _ in self._edges():
            side = set(_walk(self._len, u, without=v))
            for part in (side, set(range(self.nodes)) - side):
                colors = {l.color for l in self.leaves if l.node in part}
                if colors != {RED, BLUE}:
                    raise InvalidTree(
                        f"cutting edge ({u},{v}) leaves a side without both colors"
                    )
        for x in range(self.nodes):
            if len(self._len[x]) < 3 and not any(l.node == x for l in self.leaves):
                raise InvalidTree(f"node {x} is neither branching nor marked")


def hilbert_distance(u, v):
    diffs = [a - b for a, b in zip(u, v)]
    return max(diffs) - min(diffs)


class _Builder:
    def __init__(self):
        self.adj: dict = {}
        self.count = 0

    def new_node(self) -> int:
        u = self.count
        self.adj[u] = {}
        self.count += 1
        return u

    def add_edge(self, u, v, w):
        self.adj[u][v] = w
        self.adj[v][u] = w

    def split_edge(self, u, v, offset) -> int:
        w = self.adj[u].pop(v)
        self.adj[v].pop(u)
        s = self.new_node()
        self.add_edge(u, s, offset)
        self.add_edge(s, v, w - offset)
        return s


def _embed_points(dist: list) -> tuple[_Builder, list] | None:
    """Grow a tree containing marked points 0 .. k-1 with the exact int
    metric dist[z][x], every distance even so every Gromov product is an
    int.  Returns the builder and each point's node, or None when a Gromov
    product overruns its path: then dist is no tree metric."""
    b = _Builder()
    node_of = [b.new_node()]
    for z in range(1, len(dist)):
        dz = dist[z]
        dza = dz[0]
        best_g, best_x = 0, None
        for x in range(1, z):
            g = (dza + dist[0][x] - dz[x]) // 2
            if g > best_g:
                best_g, best_x = g, x
        attach = node_of[0]
        if best_x is not None:
            # the first node v on the path from point 0 to best_x at
            # distance >= best_g from point 0, and u the node before it
            reached = _walk(b.adj, attach)
            v = node_of[best_x]
            if reached[v][1] < best_g:
                return None
            u = reached[v][0]
            while reached[u][1] >= best_g:
                v, u = u, reached[u][0]
            if reached[v][1] == best_g:
                attach = v
            else:
                attach = b.split_edge(u, v, best_g - reached[u][1])
        r = dza - best_g
        if r == 0:
            node_of.append(attach)
        else:
            zn = b.new_node()
            b.add_edge(attach, zn, r)
            node_of.append(zn)
    return b, node_of


def tree_from_rank2(a: TropMatrix, bound: int = MAX_ENUMERATION_BOUND) -> BicoloredTree:
    """Bicolored tree of a tropical rank <= 2 matrix (star for rank <= 1).

    It keeps no memo of its own: the rank is the memoised trop_rank, and
    the tree comes from _rank2_tree, memoised on the matrix alone, so every
    caller shares one tree per matrix: read it, never write its adjacency
    or leaves.
    """
    if trop_rank(a, bound) > 2:
        raise RankTooHigh("matrix has tropical rank above 2")
    return known_rank2_tree(a)


def known_rank2_tree(a: TropMatrix) -> BicoloredTree:
    """_rank2_tree of a matrix whose tropical rank is known to be <= 2 (a
    caller that knows sym_trop_rank <= 2 knows it: sym_trop_rank is never
    below trop_rank).  Such a matrix has a tree, so a None there is a
    fault, and it raises explicitly, under python -O too."""
    tree = _rank2_tree(a)
    if tree is None:
        raise AssertionError("a matrix of tropical rank <= 2 must have a tree")
    return tree


@recorded
def _rank2_tree(a: TropMatrix) -> BicoloredTree | None:
    """The tree of a matrix of tropical rank <= 2, or None when its rank is
    higher: a matrix has rank <= 2 exactly when it is, up to scaling, the
    matrix of its tree (Develin-Santos-Sturmfels 2005, section 6).  None
    when a Gromov product overruns its path, when the tree does not
    reproduce a Hilbert distance, or when the tree's matrix is not the
    input up to scaling.  Each of these is an int comparison."""
    scale, grid = a.as_int_grid()
    d, n = a.rows, a.cols
    # positions on the doubled grid, normalized to first coordinate 0
    blue_pos = [tuple(2 * (grid[k][j] - grid[0][j]) for k in range(d)) for j in range(n)]
    red_pos = []
    for row in grid:
        ray = [min(map(int.__sub__, other, row)) for other in grid]
        red_pos.append(tuple(2 * (x - ray[0]) for x in ray))
    keys = list(dict.fromkeys(blue_pos + red_pos))
    index = {p: k for k, p in enumerate(keys)}
    dist = [[0] * len(keys) for _ in keys]
    for k, u in enumerate(keys):
        for m in range(k):
            dist[k][m] = dist[m][k] = hilbert_distance(u, keys[m])
    embedded = _embed_points(dist)
    if embedded is None:
        return None
    b, node_of = embedded
    leaves = [Leaf(BLUE, j + 1, node_of[index[p]]) for j, p in enumerate(blue_pos)]
    leaves += [Leaf(RED, i + 1, node_of[index[p]]) for i, p in enumerate(red_pos)]
    tree = BicoloredTree._on_unit(b.count, b.adj, tuple(leaves), 2 * scale)
    table = tree._dist
    for k, row in enumerate(dist):
        from_k = table[node_of[k]]
        if any(from_k[node_of[m]] != dkm for m, dkm in enumerate(row)):
            return None
    # tree_to_matrix's entries, times 2 * unit = 4 * scale, against the
    # input's with first row and column zero on the grid
    blues = [node_of[index[p]] for p in blue_pos]
    reds = [table[node_of[index[p]]] for p in red_pos]
    r0, b0, g0 = reds[0], blues[0], grid[0]
    for ri, gi in zip(reds, grid):
        base = ri[b0] - r0[b0] - 4 * (g0[0] - gi[0])
        for bj, gij, g0j in zip(blues, gi, g0):
            if base + r0[bj] - ri[bj] != 4 * (gij - g0j):
                return None
    return tree


def tree_to_matrix(tree: BicoloredTree, d: int | None = None, n: int | None = None) -> TropMatrix:
    """Canonical matrix of a valid bicolored tree (first row and column zero)."""
    tree.validate()
    if d is None:
        d = tree.red_count
    if n is None:
        n = tree.blue_count
    reds = [tree._dist[tree.leaf_node(RED, i + 1)] for i in range(d)]
    blues = [tree.leaf_node(BLUE, j + 1) for j in range(n)]
    half = 2 * tree.unit
    ent = [
        [
            Fraction(reds[i][blues[0]] + reds[0][blues[j]] - reds[0][blues[0]] - reds[i][blues[j]], half)
            for j in range(n)
        ]
        for i in range(d)
    ]
    symmetric = d == n and all(ent[i][j] == ent[j][i] for i in range(d) for j in range(n))
    return TropMatrix.make(ent, symmetric=symmetric)


def is_caterpillar(tree: BicoloredTree) -> bool:
    """True when all internal vertices lie along one path."""
    return all(len(nbrs) <= 2 for nbrs in tree._len.values())


@dataclass(frozen=True)
class SymbicReport:
    kind: str  # not_symmetric_swap | swap_not_automorphism | fixed_set_not_path | symbic
    fixed_nodes: tuple = ()
    swapped_edge: tuple | None = None
    node_map: tuple | None = None
    one_fixed_point: bool = False


def symbic_classify(tree: BicoloredTree) -> SymbicReport:
    """Classify the color-swap involution red i <-> blue i on a tree."""
    n = tree.red_count
    if tree.blue_count != n:
        raise ValueError("need equal red and blue leaf counts")
    reds = [tree.leaf_node(RED, i + 1) for i in range(n)]
    blues = [tree.leaf_node(BLUE, i + 1) for i in range(n)]
    dist = tree._dist
    # The swap red i <-> blue i must preserve all marked-point distances;
    # a leaf isometry of an exact tree metric extends to the spanned tree.
    for i in range(n):
        from_red, from_blue = dist[reds[i]], dist[blues[i]]
        for j in range(n):
            if from_red[reds[j]] != from_blue[blues[j]] or from_red[blues[j]] != from_blue[reds[j]]:
                return SymbicReport("not_symmetric_swap")
    # Extend to a node map: phi(u) is the node matching u's distance profile
    # to the swapped markers.  Distance profiles separate tree nodes; the
    # first node of a profile is the one kept.
    marked = reds + blues
    swapped = blues + reds
    node_of_profile: dict = {}
    for v in range(tree.nodes):
        from_v = dist[v]
        node_of_profile.setdefault(tuple([from_v[s] for s in swapped]), v)
    phi = {}
    for u in range(tree.nodes):
        from_u = dist[u]
        image = node_of_profile.get(tuple([from_u[m] for m in marked]))
        if image is None:
            return SymbicReport("swap_not_automorphism")
        phi[u] = image
    fixed = tuple(u for u in range(tree.nodes) if phi[u] == u)
    swapped_edge = None
    for u, v, _ in tree._edges():
        if phi[u] == v and phi[v] == u:
            swapped_edge = (u, v)
    if not fixed:
        if swapped_edge is None:
            raise AssertionError("involution with no fixed point needs an inverted edge")
        return SymbicReport(
            "symbic", (), swapped_edge, tuple(sorted(phi.items())), True
        )
    # Fixed set is the subtree induced on the fixed nodes; a path has no
    # node with three fixed neighbours.
    for u in fixed:
        if sum(1 for v in tree._len[u] if phi.get(v) == v) > 2:
            return SymbicReport("fixed_set_not_path", fixed, None, tuple(sorted(phi.items())))
    return SymbicReport(
        "symbic", fixed, None, tuple(sorted(phi.items())), len(fixed) == 1
    )


def one_fixed_point(tree: BicoloredTree) -> bool:
    """True when the color-swap fixed set is a single point."""
    rep = symbic_classify(tree)
    return rep.kind == "symbic" and rep.one_fixed_point


def tree_to_dot(tree: BicoloredTree) -> str:
    lines = ["graph bicolored_tree {", "  node [shape=point];"]
    for u, v, w in tree.edge_list():
        lines.append(f'  n{u} -- n{v} [label="{w}"];')
    if tree.nodes == 1:
        lines.append("  n0;")
    for l in tree.leaves:
        name = f"leaf_{l.color}_{l.index}"
        lines.append(
            f'  {name} [shape=circle, label="{l.index}", color={l.color}, fontcolor={l.color}];'
        )
        lines.append(f"  {name} -- n{l.node} [style=dashed];")
    lines.append("}")
    return "\n".join(lines)
