"""Tree correspondence: reconstruction, classification, round trips."""

import random
from fractions import Fraction

import pytest

from troplift import jsonio
from troplift.errors import InvalidTree, RankTooHigh
from troplift.fixtures import fixture
from troplift.samples import (
    random_bicolored_tree,
    random_rank2_matrix,
    random_symbic_tree,
    rational,
)
from troplift.trees import (
    BicoloredTree,
    Leaf,
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
    return t1.leaf_distance_table() == t2.leaf_distance_table()


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
            t2 = tree_from_rank2(a.scale_rows_cols(rows, cols))
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
    def test_spine_coordinates_measure_the_spine(self, name):
        t = tree_from_rank2(fixture(name))
        assert is_caterpillar(t)
        coord = t.spine_coordinates()
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

    def test_caterpillar_iff_barvinok2(self):
        rng = random.Random(606)
        for k in range(60):
            d, n = rng.randint(2, 5), rng.randint(2, 5)
            a = random_rank2_matrix(rng, d, n)
            ok, _, _ = barvinok_rank2(a)
            assert ok == is_caterpillar(tree_from_rank2(a))

    def test_sym_barvinok_iff_one_fixed_point_caterpillar(self):
        rng = random.Random(607)
        for k in range(60):
            n = rng.randint(2, 5)
            t = random_symbic_tree(rng, n)
            a = tree_to_matrix(t, n, n)
            a = TropMatrix.make(a.entries, symmetric=True)
            ok, _, _ = sym_barvinok_rank2(a)
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
