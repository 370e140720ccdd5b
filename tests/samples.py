"""Seeded random instance generators used by property suites, and the
matrix and tree readers the suites build them with.

Trees are generated valid by construction where possible and otherwise by
rejection against the cut condition.  Matrix generators wrap the tree
generators with random tropical scalings so the full lineality orbit is
exercised.
"""

from __future__ import annotations

from fractions import Fraction

from troplift.errors import InvalidTree
from troplift.puiseux import PuiseuxSeries
from troplift.tropmat import TropMatrix, trop_mat_mul
from troplift.trees import RED, BLUE, BicoloredTree, Leaf, tree_to_matrix


def scale_series(s: PuiseuxSeries, coeff) -> PuiseuxSeries:
    """Every coefficient of a series times coeff, at the series' order."""
    return PuiseuxSeries.make(((e, c * coeff) for e, c in s.terms), s.trunc)


def submatrix(a: TropMatrix, rows, cols) -> TropMatrix:
    """The (plain) submatrix of a on the given rows and columns."""
    return TropMatrix(tuple(tuple(a.entries[i][j] for j in cols) for i in rows), False)


def scale_rows_cols(a: TropMatrix, row_shift, col_shift) -> TropMatrix:
    """Tropical scaling: add row_shift[i] + col_shift[j] to entry (i, j)."""
    ent = tuple(
        tuple(x + row_shift[i] + col_shift[j] for j, x in enumerate(row))
        for i, row in enumerate(a.entries)
    )
    return TropMatrix(ent, False)


def scale_symmetric(a: TropMatrix, shift) -> TropMatrix:
    """Simultaneous row k and column k scaling, which keeps symmetry."""
    ent = tuple(
        tuple(x + shift[i] + shift[j] for j, x in enumerate(row)) for i, row in enumerate(a.entries)
    )
    return TropMatrix(ent, a.symmetric)


def leaf_distances(tree: BicoloredTree) -> dict:
    """All pairwise leaf distances, keyed by (color, index) pairs."""
    return {
        ((x.color, x.index), (y.color, y.index)): tree.node_distance(x.node, y.node)
        for x in tree.leaves
        for y in tree.leaves
    }


def rational(rng, lo=-4, hi=4, den=2) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def positive_length(rng, hi=6, den=2) -> Fraction:
    return Fraction(rng.randint(1, hi), rng.randint(1, den))


def random_matrix(rng, d, n, lo=-4, hi=4) -> TropMatrix:
    return TropMatrix.make([[rng.randint(lo, hi) for _ in range(n)] for _ in range(d)])


def random_sym_matrix(rng, n, lo=-4, hi=4) -> TropMatrix:
    ent = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            ent[i][j] = ent[j][i] = rng.randint(lo, hi)
    return TropMatrix.make(ent, symmetric=True)


def random_barvinok2_matrix(rng, d, n) -> TropMatrix:
    b = TropMatrix.make([[rng.randint(-4, 4) for _ in range(2)] for _ in range(d)])
    c = TropMatrix.make([[rng.randint(-4, 4) for _ in range(n)] for _ in range(2)])
    return trop_mat_mul(b, c)


def _random_topology(rng, m):
    """Random tree on m nodes with positive rational lengths."""
    adj = {0: {}}
    for u in range(1, m):
        v = rng.randrange(u)
        w = positive_length(rng)
        adj[u] = {}
        adj[u][v] = w
        adj[v][u] = w
    return adj


def random_bicolored_tree(rng, d, n, max_tries=400) -> BicoloredTree:
    """Random valid bicolored tree with d red and n blue leaves."""
    for _ in range(max_tries):
        m = rng.randint(1, max(1, min(d + n - 1, 6)))
        adj = _random_topology(rng, m)
        leaves = [Leaf(RED, i + 1, rng.randrange(m)) for i in range(d)]
        leaves += [Leaf(BLUE, j + 1, rng.randrange(m)) for j in range(n)]
        tree = BicoloredTree(m, adj, tuple(leaves))
        try:
            tree.validate()
        except InvalidTree:
            continue
        return tree
    raise RuntimeError("failed to sample a valid bicolored tree")


def random_rank2_matrix(rng, d, n) -> TropMatrix:
    """Random tropical rank <= 2 matrix with random row/column scaling."""
    tree = random_bicolored_tree(rng, d, n)
    a = tree_to_matrix(tree, d, n)
    rows = [rational(rng) for _ in range(d)]
    cols = [rational(rng) for _ in range(n)]
    return scale_rows_cols(a, rows, cols)


def random_symbic_tree(rng, n, max_tries=400) -> BicoloredTree:
    """Random symbic tree: a fixed path with mirrored branch pairs.

    Pairs are placed either on the fixed path (both leaves at one node) or
    split across a mirrored branch pair; each branch end carries one
    blue-oriented and one red-oriented pair so every cut sees both colors.
    """
    for _ in range(max_tries):
        nodes = 0
        adj: dict = {}

        def new_node():
            nonlocal nodes
            adj[nodes] = {}
            nodes += 1
            return nodes - 1

        def add_edge(u, v, w):
            adj[u][v] = w
            adj[v][u] = w

        path_len = rng.randint(1, 3)
        path = [new_node() for _ in range(path_len)]
        for u, v in zip(path, path[1:]):
            add_edge(u, v, positive_length(rng))
        indices = list(range(1, n + 1))
        rng.shuffle(indices)
        leaves = []
        # branch groups of two pairs each; remainder goes on the path
        n_groups = rng.randint(0, len(indices) // 2)
        for _ in range(n_groups):
            i = indices.pop()
            j = indices.pop()
            w = rng.choice(path)
            length = positive_length(rng)
            end_a = new_node()
            end_b = new_node()
            add_edge(w, end_a, length)
            add_edge(w, end_b, length)
            leaves += [
                Leaf(BLUE, i, end_a),
                Leaf(RED, j, end_a),
                Leaf(RED, i, end_b),
                Leaf(BLUE, j, end_b),
            ]
        for i in indices:
            w = rng.choice(path)
            leaves += [Leaf(BLUE, i, w), Leaf(RED, i, w)]
        tree = BicoloredTree(nodes, adj, tuple(leaves))
        try:
            tree.validate()
        except InvalidTree:
            continue
        return tree
    raise RuntimeError("failed to sample a symbic tree")


def random_sym_rank2_matrix(rng, n) -> TropMatrix:
    """Random symmetric tropical rank <= 2 matrix with symmetric scaling."""
    tree = random_symbic_tree(rng, n)
    a = tree_to_matrix(tree, n, n)
    assert a.symmetric, "symbic tree must give a symmetric matrix"
    shift = [rational(rng) for _ in range(n)]
    return scale_symmetric(a, shift)
