"""Newton polytope of the symmetric determinant, for small n.

Monomial classes live in the upper-triangular exponent coordinates, where
the lattice is integral with entries 0, 1, 2.  Vertices are the classes
whose semisimple graphs have no even cycle of length >= 4 (each class
reads this once, as `SignedMonomialClass.is_vertex`); two vertices form
an edge when their graph union has at most n + 1 edges and at most one
even cycle of length >= 4.  Every edge has lattice length
1 or 2, and a lattice length 2 edge arises from trading k >= 2
transpositions for a 2k-cycle, which sits at the edge midpoint.  The
midpoint may also hold odd cycles the endpoints share (from n = 7 on, a
triangle can come ahead of the 2k-cycle), so the edge records the even
cycle itself as `midpoint_cycle`.

Both the edge criterion and the lattice data read only the two exponent
matrices, so each exponent pair's NewtonEdge, or None when the pair spans
no edge, is computed once, between the classes monomials.sym_class builds
from the two exponents; the midpoint is sym_class of the mean exponent.
The memo is one row per built class u, a dict from built class v to the
pair's edge; classes keep their hash, so a lookup hashes no exponent
matrix.  A class that is not its exponent's built class (another
representative, or a copy) is matched to it once per call and gets the
remembered edge copied to name it.  `edges_among` owns the pair loop
over a list of classes, for `polytope_edges`, membership's edge table and
`edge_lattice_data`, its one-pair case, which `is_polytope_edge` reads
as a yes or no.  A NewtonEdge
is frozen, so callers share it; it reads `edge_positive_ok` once, when
made, into `positive`, a derived field that copies keep and that
equality, hashing, repr and jsonio leave out.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .monomials import (
    SignedMonomialClass,
    cycles_of,
    sym_class,
    sym_det_monomials,
)
from .tropmat import TropMatrix


def polytope_vertices(n: int) -> tuple:
    """The vertex classes of the n x n symmetric determinant's polytope;
    SizeLimit above sym_det_monomials' limit."""
    return tuple(cls for cls in sym_det_monomials(n) if cls.is_vertex)


def _union_graph(u: SignedMonomialClass, v: SignedMonomialClass):
    """Union of the two semisimple graphs; loops tagged separately."""
    items = u.edge_items | v.edge_items
    loops = {i for kind, i in ((e[0], e[1]) for e in items if e[0] == "loop")}
    edges = {e for e in items if e[0] != "loop"}
    return loops, edges


def _even_big_cycles(nverts: int, edges: set) -> int:
    """Count simple cycles of even length >= 4 in a small graph."""
    adj: dict = {i: set() for i in range(nverts)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    count = 0
    seen_cycles = set()

    def dfs(start, current, visited, length):
        nonlocal count
        for nxt in adj[current]:
            if nxt == start and length >= 3:
                key = frozenset(visited)
                if key not in seen_cycles:
                    seen_cycles.add(key)
                    if (length + 1) % 2 == 0 and length + 1 >= 4:
                        count += 1
            elif nxt > start and nxt not in visited:
                dfs(start, nxt, visited | {nxt}, length + 1)

    for s in range(nverts):
        dfs(s, s, {s}, 0)
    return count


@dataclass(frozen=True, slots=True)
class NewtonEdge:
    u: SignedMonomialClass
    v: SignedMonomialClass
    lattice_length: int  # 1 or 2
    midpoint: SignedMonomialClass | None
    # lattice 2 only: the midpoint's even cycle, from its minimum as in cycles_of
    midpoint_cycle: tuple | None
    # edge_positive_ok of the edge, read when it is made; replace copies it
    positive: bool | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.positive is None:
            object.__setattr__(self, "positive", edge_positive_ok(self))

    @property
    def union_cycle_length(self) -> int | None:
        return None if self.midpoint_cycle is None else len(self.midpoint_cycle)


# class u -> {class v: NewtonEdge | None}, between sym_class's classes;
# the classes hash from their stored hash, so a lookup reads no exponent
_EDGES: dict = {}


def edges_among(vertices) -> list:
    """The NewtonEdges among vertex classes, in combinations order.

    Each exponent pair's edge is computed once, between the classes
    sym_class builds for the two exponents, and each class is matched to
    its sym_class once per call, so the pair loop reads the row memo by
    the classes' stored hashes alone.  Classes with the same exponents but
    other representatives get a copy of the edge naming them."""
    vertices = list(vertices)
    built = [sym_class(u.exponent) for u in vertices]
    out = []
    for i, (u, bu) in enumerate(zip(vertices, built)):
        row = _EDGES.setdefault(bu, {})
        for v, bv in zip(vertices[i + 1:], built[i + 1:]):
            try:
                edge = row[bv]
            except KeyError:
                edge = row[bv] = _edge(bu, bv)
            if edge is not None:
                out.append(edge if bu is u and bv is v else replace(edge, u=u, v=v))
    return out


def _edge(u: SignedMonomialClass, v: SignedMonomialClass) -> NewtonEdge | None:
    """Edge criterion: |E_u ∪ E_v| <= n + 1 and at most one even cycle >= 4;
    then the lattice length, and for length 2 the midpoint class."""
    n = u.n
    if u.exponent == v.exponent:
        return None
    loops, edges = _union_graph(u, v)
    if len(loops) + len(edges) > n + 1 or _even_big_cycles(n, edges) > 1:
        return None
    rows = tuple(zip(u.exponent, v.exponent))
    if all((x - y) % 2 == 0 for ru, rv in rows for x, y in zip(ru, rv)):
        mid = tuple(tuple((x + y) // 2 for x, y in zip(ru, rv)) for ru, rv in rows)
        mid_cls = sym_class(mid)  # ValueError if the midpoint is no monomial
        # the endpoints differ only in transpositions, which alternate
        # around the midpoint's one even cycle
        cycle = next(
            verts
            for kind, verts in mid_cls.graph_components()
            if kind == "cycle" and len(verts) % 2 == 0
        )
        return NewtonEdge(u, v, 2, mid_cls, cycle)
    return NewtonEdge(u, v, 1, None, None)


def edge_lattice_data(u: SignedMonomialClass, v: SignedMonomialClass) -> NewtonEdge | None:
    """The Newton-polytope edge spanned by two vertex classes, with its
    lattice length and midpoint; None when u, v span none."""
    edges = edges_among((u, v))
    return edges[0] if edges else None


def is_polytope_edge(u: SignedMonomialClass, v: SignedMonomialClass) -> bool:
    """Edge criterion: |E_u ∪ E_v| <= n + 1 and at most one even cycle >= 4."""
    return edge_lattice_data(u, v) is not None


def polytope_edges(n: int) -> tuple:
    return tuple(edges_among(polytope_vertices(n)))


def birkhoff_edge(sigma1, sigma2) -> bool:
    """Two permutation-matrix vertices are adjacent iff their quotient is one cycle."""
    sigma1, sigma2 = tuple(sigma1), tuple(sigma2)
    if sigma1 == sigma2:
        return False
    inv2 = [0] * len(sigma2)
    for i, img in enumerate(sigma2):
        inv2[img] = i
    quotient = tuple(sigma1[inv2[i]] for i in range(len(sigma1)))
    nontrivial = [c for c in cycles_of(quotient) if len(c) >= 2]
    return len(nontrivial) == 1


def initial_form(classes, weights: TropMatrix) -> tuple:
    """Classes minimizing the weight pairing (the argmin on the polytope)."""
    values = [(cls.value(weights), cls) for cls in classes]
    best = min(v for v, _ in values)
    return tuple(cls for v, cls in values if v == best)


def edge_positive_ok(edge: NewtonEdge) -> bool:
    """Positive-part test for an edge's normal cone: opposite signs at
    lattice length 1, or an even midpoint cycle of length divisible by 4."""
    if edge.lattice_length == 1:
        return edge.u.sign != edge.v.sign
    return len(edge.midpoint_cycle) % 4 == 0


def table2_rows() -> tuple:
    """The five showcase monomials of the 4x4 symmetric determinant:
    a triangle with a loop, two loops with an isolated edge, the two
    transposition pairs, and the 4-cycle at their edge midpoint."""
    perms = ((1, 2, 0, 3), (0, 1, 3, 2), (1, 0, 3, 2), (3, 2, 1, 0), (1, 2, 3, 0))
    return tuple(SignedMonomialClass.from_permutation(p, True) for p in perms)
