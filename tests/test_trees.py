"""Tree correspondence: reconstruction, classification, round trips."""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from samples import (
    leaf_distances,
    random_bicolored_tree,
    random_rank2_matrix,
    random_sym_rank2_matrix,
    random_symbic_tree,
    rational,
    scale_rows_cols,
)
from troplift import jsonio
from troplift.errors import InvalidTree, RankTooHigh
from troplift.fixtures import fixture
from troplift.trees import (
    BicoloredTree,
    Leaf,
    SymbicReport,
    is_caterpillar,
    one_fixed_point,
    symbic_classify,
    tree_from_rank2,
    tree_to_matrix,
    tree_to_dot,
)
from troplift.tropical import barvinok_rank2, sym_barvinok_rank2
from troplift.tropmat import TropMatrix

F = Fraction

EQ1 = TropMatrix.make([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
FIG2A = TropMatrix.make([[0, 2, 1], [2, 0, 0], [1, 0, 0]], symmetric=True)


def trees_equal(t1, t2) -> bool:
    return leaf_distances(t1) == leaf_distances(t2)


class TestFromRank2:
    def test_eq1_gives_tripod(self):
        t = tree_from_rank2(EQ1)
        assert t.nodes == 4
        lengths = sorted(w for _, _, w in t.edge_list())
        assert lengths == [1, 1, 1]
        degrees = sorted(len(t.adj[u]) for u in range(t.nodes))
        assert degrees == [1, 1, 1, 3]
        # red i and blue i share a vertex for each i
        for i in (1, 2, 3):
            assert t.leaf_node("red", i) == t.leaf_node("blue", i)
        assert not is_caterpillar(t)

    def test_fig2a_gives_one_fixed_point_caterpillar(self):
        t = tree_from_rank2(FIG2A)
        assert is_caterpillar(t)
        rep = symbic_classify(t)
        assert rep.kind == "symbic" and rep.one_fixed_point

    def test_rank1_gives_star(self):
        a = TropMatrix.make([[1, 2], [3, 4]])  # a_ij = r_i + c_j
        t = tree_from_rank2(a)
        assert t.nodes == 1 and not t.edge_list()

    def test_rank3_rejected(self):
        bad = TropMatrix.make([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        with pytest.raises(RankTooHigh):
            tree_from_rank2(bad)

    def test_invariant_under_scaling(self):
        rng = random.Random(404)
        for k in range(30):
            d, n = rng.randint(2, 5), rng.randint(2, 5)
            a = random_rank2_matrix(rng, d, n)
            t1 = tree_from_rank2(a)
            rows = [rational(rng) for _ in range(d)]
            cols = [rational(rng) for _ in range(n)]
            t2 = tree_from_rank2(scale_rows_cols(a, rows, cols))
            assert trees_equal(t1, t2)


class TestToMatrix:
    def test_eq1_tree_matrix_is_scaling_of_eq1(self):
        t = tree_from_rank2(EQ1)
        m = tree_to_matrix(t, 3, 3)
        assert m.entries[0] == (0, 0, 0) and all(r[0] == 0 for r in m.entries)
        assert trees_equal(tree_from_rank2(m), t)

    def test_star_tree_gives_zero_matrix(self):
        star = BicoloredTree(
            1, {0: {}}, (Leaf("red", 1, 0), Leaf("red", 2, 0), Leaf("blue", 1, 0), Leaf("blue", 2, 0))
        )
        m = tree_to_matrix(star, 2, 2)
        assert all(x == 0 for row in m.entries for x in row)

    def test_invalid_tree_rejected(self):
        # single red leaf on one side of an edge
        adj = {0: {1: F(1)}, 1: {0: F(1)}}
        t = BicoloredTree(
            2, adj, (Leaf("red", 1, 0), Leaf("blue", 1, 1), Leaf("red", 2, 1), Leaf("blue", 2, 1))
        )
        with pytest.raises(InvalidTree):
            tree_to_matrix(t, 2, 2)

    @pytest.mark.parametrize(
        "edges",
        [[(0, 1), (2, 3)], [(0, 1), (1, 2), (2, 0)]],
        ids=["disconnected", "three_cycle"],
    )
    def test_graph_that_is_not_a_tree_rejected(self, edges):
        nodes = 1 + max(max(e) for e in edges)
        adj = {u: {} for u in range(nodes)}
        for u, v in edges:
            adj[u][v] = adj[v][u] = F(1)
        leaves = tuple(
            Leaf(color, u + 1, u) for u in range(nodes) for color in ("red", "blue")
        )
        with pytest.raises(InvalidTree, match="not a connected acyclic graph"):
            BicoloredTree(nodes, adj, leaves).validate()

    @pytest.mark.parametrize("length", [F(0), F(-1)], ids=["zero", "negative"])
    def test_edge_without_positive_length_rejected(self, length):
        adj = {0: {1: length}, 1: {0: length}}
        leaves = tuple(Leaf(color, u + 1, u) for u in range(2) for color in ("red", "blue"))
        with pytest.raises(InvalidTree, match="edge lengths must be positive"):
            BicoloredTree(2, adj, leaves)

    def test_roundtrip_300_random_trees(self):
        rng = random.Random(20240811)
        for k in range(300):
            d, n = rng.randint(2, 6), rng.randint(2, 6)
            t = random_bicolored_tree(rng, d, n)
            a = tree_to_matrix(t, d, n)
            t2 = tree_from_rank2(a)
            assert trees_equal(t, t2), f"round trip failed at seed item {k}"


class TestClassification:
    def test_eq1_fixed_set_not_path(self):
        assert symbic_classify(tree_from_rank2(EQ1)).kind == "fixed_set_not_path"

    def test_spine_type_fixed_path_is_whole_spine(self):
        fig4a = TropMatrix.make(
            [[0, 0, 0, 0], [0, 3, 2, 1], [0, 2, 2, 1], [0, 1, 1, 1]], symmetric=True
        )
        t = tree_from_rank2(fig4a)
        rep = symbic_classify(t)
        assert rep.kind == "symbic" and not rep.one_fixed_point
        assert len(rep.fixed_nodes) == t.nodes
        assert is_caterpillar(t)

    @pytest.mark.parametrize("name", ["fig2a", "fig4a"])
    def test_spine_offsets_measure_the_spine(self, name):
        t = tree_from_rank2(fixture(name))
        assert is_caterpillar(t)
        coord = {x: F(d, t.unit) for x, d in t.spine_offsets().items()}
        assert sorted(coord) == list(range(t.nodes))
        start = min(u for u in range(t.nodes) if len(t.adj[u]) == 1)
        assert coord[start] == 0
        for u, v, w in t.edge_list():
            assert abs(coord[u] - coord[v]) == w

    def test_fig2a_one_fixed_point(self):
        assert one_fixed_point(tree_from_rank2(FIG2A))

    def test_not_symmetric_swap(self):
        # red pair far apart, blue pair close together
        adj = {0: {1: F(2)}, 1: {0: F(2)}}
        t = BicoloredTree(
            2,
            adj,
            (Leaf("red", 1, 0), Leaf("blue", 2, 0), Leaf("red", 2, 0), Leaf("blue", 1, 1), Leaf("red", 3, 1), Leaf("blue", 3, 1)),
        )
        assert symbic_classify(t).kind == "not_symmetric_swap"

    def test_swap_must_keep_red_blue_distances(self):
        # red-red and blue-blue distances agree, red 1 - blue 2 (6) and
        # blue 1 - red 2 (4) do not
        adj = {0: {1: F(1)}, 1: {0: F(1), 2: F(4)}, 2: {1: F(4), 3: F(1)}, 3: {2: F(1)}}
        t = BicoloredTree(
            4, adj, (Leaf("red", 1, 0), Leaf("red", 2, 1), Leaf("blue", 1, 2), Leaf("blue", 2, 3))
        )
        assert symbic_classify(t).kind == "not_symmetric_swap"

    def test_caterpillar_iff_barvinok2(self):
        rng = random.Random(606)
        for k in range(60):
            d, n = rng.randint(2, 5), rng.randint(2, 5)
            a = random_rank2_matrix(rng, d, n)
            ok = barvinok_rank2(a).ok
            assert ok == is_caterpillar(tree_from_rank2(a))

    def test_sym_barvinok_iff_one_fixed_point_caterpillar(self):
        rng = random.Random(607)
        for k in range(60):
            n = rng.randint(2, 5)
            t = random_symbic_tree(rng, n)
            a = tree_to_matrix(t, n, n)
            a = TropMatrix.make(a.entries, symmetric=True)
            ok = sym_barvinok_rank2(a).ok
            t2 = tree_from_rank2(a)
            assert ok == (is_caterpillar(t2) and one_fixed_point(t2))


class TestSerialization:
    def test_tree_json_roundtrip(self):
        rng = random.Random(5)
        for k in range(20):
            t = random_bicolored_tree(rng, rng.randint(2, 5), rng.randint(2, 5))
            t2 = jsonio.decode_tree(jsonio.encode_tree(t))
            assert trees_equal(t, t2)

    def test_dot_mentions_all_leaves(self):
        t = tree_from_rank2(FIG2A)
        dot = tree_to_dot(t)
        for color in ("red", "blue"):
            for i in (1, 2, 3):
                assert f"leaf_{color}_{i}" in dot


# --- the integer metric against a Fraction reference ----------------------
#
# The reference keeps every position and Hilbert distance in Fractions, as
# the builder did before it moved to the integer grid.


def ref_points(a):
    """Blue column points and red ray points, first coordinate 0."""
    d, n = a.rows, a.cols
    blue = [tuple(a[k, j] - a[0, j] for k in range(d)) for j in range(n)]
    red = []
    for i in range(d):
        ray = [min(a[k, j] - a[i, j] for j in range(n)) for k in range(d)]
        red.append(tuple(x - ray[0] for x in ray))
    return blue, red


def ref_hilbert(u, v) -> Fraction:
    diffs = [F(x) - y for x, y in zip(u, v)]
    return max(diffs) - min(diffs)


def ref_leaf_distances(a) -> dict:
    blue, red = ref_points(a)
    points = {("blue", j + 1): p for j, p in enumerate(blue)}
    points.update({("red", i + 1): p for i, p in enumerate(red)})
    return {(x, y): ref_hilbert(points[x], points[y]) for x in points for y in points}


def ref_canonical_matrix(a) -> tuple:
    """tree_to_matrix's formula on the reference distances."""
    dist = ref_leaf_distances(a)

    def rb(i, j):
        return dist[(("red", i + 1), ("blue", j + 1))]

    return tuple(
        tuple((rb(i, 0) + rb(0, j) - rb(0, 0) - rb(i, j)) / 2 for j in range(a.cols))
        for i in range(a.rows)
    )


def ref_symbic_classify(tree):
    """symbic_classify as it read Fraction distances, node by node."""
    n = tree.red_count
    reds = [tree.leaf_node("red", i + 1) for i in range(n)]
    blues = [tree.leaf_node("blue", i + 1) for i in range(n)]
    dist = tree.node_distance
    for i in range(n):
        for j in range(n):
            if dist(reds[i], reds[j]) != dist(blues[i], blues[j]):
                return SymbicReport("not_symmetric_swap")
            if dist(reds[i], blues[j]) != dist(blues[i], reds[j]):
                return SymbicReport("not_symmetric_swap")
    marked, swapped = reds + blues, blues + reds
    phi = {}
    for u in range(tree.nodes):
        profile = [dist(u, m) for m in marked]
        image = next(
            (v for v in range(tree.nodes) if all(dist(v, s) == p for s, p in zip(swapped, profile))),
            None,
        )
        if image is None:
            return SymbicReport("swap_not_automorphism")
        phi[u] = image
    fixed = tuple(u for u in range(tree.nodes) if phi[u] == u)
    node_map = tuple(sorted(phi.items()))
    swapped_edge = None
    for u, v, _ in tree.edge_list():
        if phi[u] == v and phi[v] == u:
            swapped_edge = (u, v)
    if not fixed:
        return SymbicReport("symbic", (), swapped_edge, node_map, True)
    adj = tree.adj
    if any(sum(1 for v in adj[u] if phi[v] == v) > 2 for u in fixed):
        return SymbicReport("fixed_set_not_path", fixed, None, node_map)
    return SymbicReport("symbic", fixed, None, node_map, len(fixed) == 1)


@st.composite
def swap_trees(draw):
    """Trees with n red and n blue leaves: symbic ones from samples, random
    bicolored ones, and symbic ones with two leaf labels exchanged."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 5))
    kind = draw(st.sampled_from(["symbic", "random", "relabelled"]))
    if kind == "random":
        return random_bicolored_tree(rng, n, n)
    t = random_symbic_tree(rng, n)
    if kind == "relabelled":
        leaves = list(t.leaves)
        i, j = rng.sample(range(len(leaves)), 2)
        a, b = leaves[i], leaves[j]
        leaves[i], leaves[j] = Leaf(a.color, a.index, b.node), Leaf(b.color, b.index, a.node)
        t = BicoloredTree(t.nodes, t.adj, tuple(leaves))
    return t


@st.composite
def scaled_rank2(draw):
    """A rank <= 2 matrix from samples, scaled by 1, 1/2, 1/3 or 1/6."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        a = random_rank2_matrix(rng, draw(st.integers(2, 5)), draw(st.integers(2, 5)))
    else:
        a = random_sym_rank2_matrix(rng, draw(st.integers(2, 5)))
    den = draw(st.sampled_from([1, 2, 3, 6]))
    return TropMatrix.make([[x / den for x in row] for row in a.entries], symmetric=a.symmetric)


class TestIntegerMetric:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(scaled_rank2())
    def test_leaf_distances_and_matrix_match_the_reference(self, a):
        t = tree_from_rank2(a)
        assert leaf_distances(t) == ref_leaf_distances(a)
        assert tree_to_matrix(t).entries == ref_canonical_matrix(a)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(scaled_rank2())
    def test_lengths_are_ints_over_the_doubled_grid(self, a):
        t = tree_from_rank2(a)
        scale, _ = a.as_int_grid()
        assert t.unit == 2 * scale
        for u, v, w in t.edge_list():
            assert type(w) is Fraction and (w * t.unit).denominator == 1
            assert t.node_distance(u, v) == w

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(swap_trees())
    def test_symbic_classify_matches_the_reference(self, t):
        assert symbic_classify(t) == ref_symbic_classify(t)

    def test_fraction_lengths_go_on_their_denominator_lcm(self):
        adj = {0: {1: F(1, 2), 2: F(2, 3)}, 1: {0: F(1, 2)}, 2: {0: F(2, 3)}}
        leaves = (Leaf("red", 1, 1), Leaf("blue", 1, 1), Leaf("red", 2, 2), Leaf("blue", 2, 2))
        t = BicoloredTree(3, adj, leaves)
        assert t.unit == 6
        assert t.edge_list() == [(0, 1, F(1, 2)), (0, 2, F(2, 3))]
        assert t.node_distance(1, 2) == F(7, 6)
        assert t.adj == adj


class TestJsonRoundTrip:
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.sampled_from([1, 2, 3, 6]))
    def test_decoded_tree_reads_like_the_built_one(self, seed, n, den):
        rng = random.Random(seed)
        a = random_sym_rank2_matrix(rng, n) if seed % 2 else random_rank2_matrix(rng, n, n)
        a = TropMatrix.make([[x / den for x in row] for row in a.entries])
        t = tree_from_rank2(a)
        t2 = jsonio.decode_tree(jsonio.encode_tree(t))
        assert jsonio.dumps(jsonio.encode_tree(t2)) == jsonio.dumps(jsonio.encode_tree(t))
        assert tree_to_dot(t2) == tree_to_dot(t)
        for u in range(t.nodes):
            for v in range(t.nodes):
                assert t2.node_distance(u, v) == t.node_distance(u, v)
        assert symbic_classify(t2) == symbic_classify(t)
