"""Bicolored metric trees and the rank-2 matrix correspondence.

A tropical rank <= 2 matrix determines a tree: column j sits at the point
x_j given by the column itself (in tropical projective coordinates), the
coordinate ray e_i attaches at the projection rho_i with coordinates
min_j (a_kj - a_ij), and the internal metric is the tropical Hilbert
distance max(u - v) - min(u - v).  Blue leaves mark columns, red leaves
mark rays, leaf edges carry no length.  Reconstruction embeds the marked
points one at a time by their exact pairwise distances (Gromov products
locate each projection), which is the same data as the tie pattern and
slack of the 2x2 tropical minors.

Trees are stored as an adjacency map with positive rational edge lengths
plus leaf markings; several leaves may share a node.  Every traversal is
one breadth-first walk (`_walk`): paths, cut sides, connectivity and the
node distances, which a tree computes once, at construction, and then
only reads.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .config import MAX_ENUMERATION_BOUND
from .errors import InvalidTree, RankTooHigh
from .tropical import _MEMO_SIZE, trop_rank
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
    out = {start: (None, Fraction(0))}
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
    def __init__(self, nodes: int, adj: dict, leaves: tuple):
        if any(w <= 0 for nbrs in adj.values() for w in nbrs.values()):
            raise InvalidTree("edge lengths must be positive")
        self.nodes = nodes
        self.adj = adj
        self.leaves = tuple(leaves)
        self._dist = {
            s: {x: d for x, (_, d) in _walk(adj, s).items()} for s in range(nodes)
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

    def edge_list(self) -> list[tuple[int, int, Fraction]]:
        out = []
        for u in range(self.nodes):
            for v, w in self.adj[u].items():
                if u < v:
                    out.append((u, v, w))
        return out

    def node_distance(self, u: int, v: int) -> Fraction:
        return self._dist[u][v]

    def spine_coordinates(self) -> dict:
        """Arc-length coordinate of every node of a caterpillar spine,
        measured from its lowest-numbered end (a fresh dict)."""
        start = min(u for u in range(self.nodes) if len(self.adj[u]) <= 1)
        return dict(self._dist[start])

    def path(self, u: int, v: int) -> list[int]:
        """Nodes on the path from u to v."""
        reached = _walk(self.adj, u)
        out = [v]
        while out[-1] != u:
            out.append(reached[out[-1]][0])
        return out[::-1]

    def validate(self):
        """Connectivity plus the two-colors-on-each-side cut condition."""
        if self.nodes == 0:
            raise InvalidTree("empty tree")
        edge_count = sum(map(len, self.adj.values()))
        if len(_walk(self.adj, 0)) != self.nodes or edge_count != 2 * (self.nodes - 1):
            raise InvalidTree("not a connected acyclic graph")
        for u, v, _ in self.edge_list():
            side = set(_walk(self.adj, u, without=v))
            for part in (side, set(range(self.nodes)) - side):
                colors = {l.color for l in self.leaves if l.node in part}
                if colors != {RED, BLUE}:
                    raise InvalidTree(
                        f"cutting edge ({u},{v}) leaves a side without both colors"
                    )
        for x in range(self.nodes):
            if len(self.adj[x]) < 3 and not any(l.node == x for l in self.leaves):
                raise InvalidTree(f"node {x} is neither branching nor marked")

    def leaf_distance_table(self) -> dict:
        """All pairwise leaf distances, keyed by (color, index) pairs."""
        out = {}
        for a in self.leaves:
            for b in self.leaves:
                out[((a.color, a.index), (b.color, b.index))] = self._dist[a.node][b.node]
        return out


def hilbert_distance(u, v) -> Fraction:
    diffs = [a - b for a, b in zip(u, v)]
    return max(diffs) - min(diffs)


def _normalize(vec) -> tuple:
    base = vec[0]
    return tuple(a - base for a in vec)


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


def _embed_points(keys: list, dist) -> tuple[_Builder, dict]:
    """Grow a tree containing marked points with the given exact metric."""
    b = _Builder()
    a = keys[0]
    node_of = {a: b.new_node()}
    for idx, z in enumerate(keys[1:], start=1):
        dza = dist(z, a)
        best_g, best_x = Fraction(0), None
        for x in keys[1:idx]:
            g = (dza + dist(a, x) - dist(z, x)) / 2
            if g > best_g:
                best_g, best_x = g, x
        attach = node_of[a]
        if best_x is not None and best_g > 0:
            # the first node v on the path from a to best_x at distance
            # >= best_g from a, and u the node before it
            reached = _walk(b.adj, attach)
            v = node_of[best_x]
            assert reached[v][1] >= best_g, "Gromov product exceeded the path length"
            u = reached[v][0]
            while reached[u][1] >= best_g:
                v, u = u, reached[u][0]
            if reached[v][1] == best_g:
                attach = v
            else:
                attach = b.split_edge(u, v, best_g - reached[u][1])
        r = dza - best_g
        if r == 0:
            node_of[z] = attach
        else:
            zn = b.new_node()
            b.add_edge(attach, zn, r)
            node_of[z] = zn
    return b, node_of


@lru_cache(maxsize=_MEMO_SIZE)
def tree_from_rank2(a: TropMatrix, bound: int = MAX_ENUMERATION_BOUND) -> BicoloredTree:
    """Bicolored tree of a tropical rank <= 2 matrix (star for rank <= 1).

    Memoised like the analyses in tropical, so every caller shares one
    tree per matrix: read it, never write its adjacency or leaves.
    """
    if trop_rank(a, bound) > 2:
        raise RankTooHigh("matrix has tropical rank above 2")
    d, n = a.rows, a.cols
    blue_pos = [_normalize(a.col(j)) for j in range(n)]
    red_pos = [
        _normalize(tuple(min(a[k, j] - a[i, j] for j in range(n)) for k in range(d)))
        for i in range(d)
    ]
    keys = list(dict.fromkeys(blue_pos + red_pos))
    b, node_of = _embed_points(keys, hilbert_distance)
    leaves = [Leaf(BLUE, j + 1, node_of[blue_pos[j]]) for j in range(n)]
    leaves += [Leaf(RED, i + 1, node_of[red_pos[i]]) for i in range(d)]
    tree = BicoloredTree(b.count, b.adj, tuple(leaves))
    for u in keys:
        for v in keys:
            assert tree.node_distance(node_of[u], node_of[v]) == hilbert_distance(u, v)
    return tree


def tree_to_matrix(tree: BicoloredTree, d: int | None = None, n: int | None = None) -> TropMatrix:
    """Canonical matrix of a valid bicolored tree (first row and column zero)."""
    tree.validate()
    if d is None:
        d = tree.red_count
    if n is None:
        n = tree.blue_count
    reds = [tree.leaf_node(RED, i + 1) for i in range(d)]
    blues = [tree.leaf_node(BLUE, j + 1) for j in range(n)]
    dist = tree.node_distance
    ent = [
        [
            (dist(reds[i], blues[0]) + dist(reds[0], blues[j]) - dist(reds[0], blues[0]) - dist(reds[i], blues[j]))
            / 2
            for j in range(n)
        ]
        for i in range(d)
    ]
    symmetric = d == n and all(ent[i][j] == ent[j][i] for i in range(d) for j in range(n))
    return TropMatrix.make(ent, symmetric=symmetric)


def is_caterpillar(tree: BicoloredTree) -> bool:
    """True when all internal vertices lie along one path."""
    return all(len(tree.adj[u]) <= 2 for u in range(tree.nodes))


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
    dist = tree.node_distance
    # The swap red i <-> blue i must preserve all marked-point distances;
    # a leaf isometry of an exact tree metric extends to the spanned tree.
    for i in range(n):
        for j in range(n):
            if dist(reds[i], reds[j]) != dist(blues[i], blues[j]):
                return SymbicReport("not_symmetric_swap")
            if dist(reds[i], blues[j]) != dist(blues[i], reds[j]):
                return SymbicReport("not_symmetric_swap")
    # Extend to a node map: phi(u) is the node matching u's distance profile
    # to the swapped markers.  Distance profiles separate tree nodes.
    marked = reds + blues
    swapped = blues + reds
    phi = {}
    for u in range(tree.nodes):
        profile = [dist(u, m) for m in marked]
        image = None
        for v in range(tree.nodes):
            if all(dist(v, s) == p for s, p in zip(swapped, profile)):
                image = v
                break
        if image is None:
            return SymbicReport("swap_not_automorphism")
        phi[u] = image
    fixed = tuple(sorted(u for u in range(tree.nodes) if phi[u] == u))
    swapped_edge = None
    for u, v, _ in tree.edge_list():
        if phi[u] == v and phi[v] == u:
            swapped_edge = (u, v)
    if not fixed:
        assert swapped_edge is not None, "involution with no fixed point needs an inverted edge"
        return SymbicReport(
            "symbic", (), swapped_edge, tuple(sorted(phi.items())), True
        )
    # Fixed set is the subtree induced on the fixed nodes; a path has no
    # node with three fixed neighbours.
    for u in fixed:
        if sum(1 for v in tree.adj[u] if phi.get(v) == v) > 2:
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
