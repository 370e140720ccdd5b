"""Brute-force oracles, their agreement with the fast paths, and the
cocircuit fixture."""

import random
from fractions import Fraction

import pytest

from linprog import OPTIMAL, lp_feasible, lp_maximize
from oracle import (
    brute_barvinok2,
    brute_hull,
    brute_sym_barvinok2,
)
from samples import random_rank2_matrix, random_sym_rank2_matrix
from troplift.errors import SizeLimit
from troplift.fixtures import cocircuit_fixture, fixture
from troplift.monomials import sym_det_monomials
from troplift.newton import polytope_edges, polytope_vertices
from troplift.tropical import barvinok_rank2, sym_barvinok_rank2
from troplift.tropmat import TropMatrix

F = Fraction


class TestLinprog:
    def test_feasible_system(self):
        # x + y = 3, x - y = 1 with x, y >= 0 -> (2, 1)
        assert lp_feasible([[1, 1], [1, -1]], [3, 1])

    def test_infeasible_system(self):
        # x + y = 1 and x + y = 2
        assert not lp_feasible([[1, 1], [1, 1]], [1, 2])

    def test_maximize(self):
        # max x subject to x + s = 5
        status, val = lp_maximize([1, 0], [[1, 1]], [5])
        assert status == OPTIMAL and val == 5

    def test_exact_fractions(self):
        status, val = lp_maximize(
            [F(1, 3), 0], [[F(2, 7), F(1)]], [F(3, 5)]
        )
        assert status == OPTIMAL and val == F(7, 10)


class TestBruteBarvinok:
    def test_eq1_false(self):
        assert not brute_barvinok2(fixture("eq1"))

    def test_rank1_true(self):
        assert brute_barvinok2(TropMatrix.make([[1, 2], [3, 4]]))

    def test_size_limit(self):
        with pytest.raises(SizeLimit):
            brute_barvinok2(TropMatrix.make([[0] * 5 for _ in range(5)]))

    def test_agrees_with_tree_criterion(self):
        rng = random.Random(914)
        for k in range(30):
            d, n = rng.randint(2, 4), rng.randint(2, 4)
            a = random_rank2_matrix(rng, d, n)
            fast = barvinok_rank2(a).ok
            assert brute_barvinok2(a) == fast

    def test_sym_agrees_with_tree_criterion(self):
        rng = random.Random(915)
        for k in range(20):
            n = rng.randint(2, 4)
            a = random_sym_rank2_matrix(rng, n)
            a = TropMatrix.make(a.entries, symmetric=True)
            fast = sym_barvinok_rank2(a).ok
            assert brute_sym_barvinok2(a) == fast

    def test_spine_type_not_sym_barvinok(self):
        a = fixture("fig4a")
        assert brute_barvinok2(a)
        assert not brute_sym_barvinok2(a)


class TestBruteHull:
    def test_unit_square(self):
        v, e = brute_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
        assert v == [0, 1, 2, 3]
        assert sorted(e) == [(0, 1), (0, 2), (1, 3), (2, 3)]

    def test_interior_and_midpoint_points(self):
        pts = [(0, 0), (2, 0), (0, 2), (1, 0), (F(1, 2), F(1, 2))]
        v, e = brute_hull(pts)
        assert v == [0, 1, 2]
        assert sorted(e) == [(0, 1), (0, 2), (1, 2)]

    def test_size_limit(self):
        with pytest.raises(SizeLimit):
            brute_hull([(i,) * 13 for i in range(3)])


class TestCocircuitFixture:
    def test_shape_and_zero_counts(self):
        c = cocircuit_fixture()
        assert c.rows == 9 and c.cols == 12
        for j in range(12):
            assert sum(1 for i in range(9) if c[i, j] == 0) == 6

    def test_columns_are_line_complements(self):
        # lines of the affine plane over three elements have three points,
        # pairwise meeting in at most one point
        c = cocircuit_fixture()
        lines = [frozenset(i for i in range(9) if c[i, j] == 1) for j in range(12)]
        assert all(len(l) == 3 for l in lines)
        assert len(set(lines)) == 12
        for a in lines:
            for b in lines:
                if a != b:
                    assert len(a & b) <= 1

    def test_tropical_rank_three(self, cocircuit_rank):
        assert cocircuit_rank[0] == 3


def test_fast_paths_agree_with_the_references_on_seed_1(hull4, cocircuit_rank):
    """The 33 cross-checks on the draws of random.Random(1): 20 plain and 10
    symmetric rank-2 samples of at most 4 x 4, the vertices and edges of
    the 4 x 4 symmetric determinant's Newton polytope, and the cocircuit
    fixture's tropical rank."""
    rng = random.Random(1)
    checks = []
    for _ in range(20):
        d, n = rng.randint(2, 4), rng.randint(2, 4)
        a = random_rank2_matrix(rng, d, n)
        checks.append((a.entries, barvinok_rank2(a).ok, brute_barvinok2(a)))
    for _ in range(10):
        a = random_sym_rank2_matrix(rng, rng.randint(2, 4))
        a = TropMatrix.make(a.entries, symmetric=True)
        checks.append((a.entries, sym_barvinok_rank2(a).ok, brute_sym_barvinok2(a)))
    classes = sym_det_monomials(4)
    hull_v, hull_e = hull4
    fast_v = sorted(classes.index(c) for c in polytope_vertices(4))
    checks.append(("vertices", fast_v, sorted(hull_v)))
    fast_e = sorted(
        tuple(sorted((classes.index(e.u), classes.index(e.v)))) for e in polytope_edges(4)
    )
    checks.append(("edges", fast_e, sorted(tuple(sorted(p)) for p in hull_e)))
    checks.append(("cocircuit rank", cocircuit_rank[0], 3))
    assert len(checks) == 33
    assert [c for c in checks if c[1] != c[2]] == []
