"""Tropical determinants, ranks, products, and factorization tests."""

import random
from fractions import Fraction

import pytest

from oracle import brute_barvinok2
from samples import random_matrix, random_rank2_matrix, random_sym_matrix
from troplift.errors import SizeLimit
from troplift.monomials import sym_det_monomials
from troplift.tropical import (
    barvinok_rank2,
    sym_barvinok_rank2,
    sym_trop_det,
    sym_trop_rank,
    trop_det,
    trop_rank,
)
from troplift.tropmat import TropMatrix, trop_mat_mul

F = Fraction

EQ1 = TropMatrix.make([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
EQ1_SYM = TropMatrix.make(EQ1.entries, symmetric=True)


class TestTropDet:
    def test_identity_like_ties_on_two_three_cycles(self):
        res = trop_det(EQ1)
        assert res.min_value == 0 and res.tie
        reps = {cls.representative for cls in res.argmin}
        assert reps == {(1, 2, 0), (2, 0, 1)}
        assert all(cls.sign == 1 for cls in res.argmin)

    def test_one_by_one(self):
        res = trop_det(TropMatrix.make([[5]]))
        assert res.min_value == 5 and not res.tie

    def test_enumeration_bound(self):
        big = TropMatrix.make([[0] * 9 for _ in range(9)])
        with pytest.raises(SizeLimit):
            trop_det(big)

    def test_hungarian_agrees_with_enumeration(self):
        from scipy.optimize import linear_sum_assignment

        rng = random.Random(20240810)
        for _ in range(500):
            n = rng.randint(1, 7)
            a = random_matrix(rng, n, n, -9, 9)
            scale, grid = a.as_int_grid()
            rows, cols = linear_sum_assignment(grid)
            want = Fraction(sum(grid[i][j] for i, j in zip(rows, cols)), scale)
            assert trop_det(a).min_value == want

    def test_tie_perturbation(self):
        # bumping one entry of the unique optimal permutation moves the
        # minimum by exactly the bump, certifying there was no hidden tie
        rng = random.Random(7)
        found = 0
        while found < 40:
            n = rng.randint(2, 5)
            a = random_matrix(rng, n, n, -6, 6)
            res = trop_det(a)
            if res.tie:
                continue
            found += 1
            sigma = res.argmin[0].representative
            eps = F(1, 7)
            i = rng.randrange(n)
            ent = [list(row) for row in a.entries]
            ent[i][sigma[i]] += eps
            assert trop_det(TropMatrix.make(ent)).min_value == res.min_value + eps


class TestSymTropDet:
    def test_identity_like_is_symmetrically_nonsingular(self):
        res = sym_trop_det(EQ1_SYM)
        assert res.min_value == 0 and not res.tie
        assert res.argmin[0].monomial_str() == "2*x12*x13*x23"

    def test_ex52_argmin_classes(self):
        m = TropMatrix.make(
            [[2, 0, 1, 0], [0, 2, 0, 2], [1, 0, 2, 0], [0, 2, 0, 1]], symmetric=True
        )
        res = sym_trop_det(m)
        got = {cls.monomial_str() for cls in res.argmin}
        assert got == {"x12^2*x34^2", "x14^2*x23^2", "-2*x12*x14*x23*x34"}

    def test_three_by_three_has_five_classes(self):
        assert len(sym_det_monomials(3)) == 5

    def test_as_symmetric_flags_an_equal_matrix_once(self):
        assert EQ1_SYM.as_symmetric() is EQ1_SYM
        assert EQ1.as_symmetric() == EQ1_SYM
        with pytest.raises(ValueError):
            TropMatrix.make([[0, 1], [2, 0]]).as_symmetric()


class TestRanks:
    def test_eq1_ranks(self):
        assert trop_rank(EQ1) == 2
        assert sym_trop_rank(EQ1_SYM) == 3

    def test_zero_matrix_rank_one(self):
        z = TropMatrix.make([[0] * 4 for _ in range(4)])
        assert trop_rank(z) == 1

    def test_plain_rank_at_most_symmetric_rank(self):
        rng = random.Random(31)
        for _ in range(500):
            n = rng.randint(1, 5)
            a = random_sym_matrix(rng, n)
            assert trop_rank(a) <= sym_trop_rank(a)


class TestTropMatMul:
    def test_column_times_row(self):
        d2, d3 = F(2), F(3)
        b = TropMatrix.make([[0], [d2], [d3]])
        c = TropMatrix.make([[0, d2, d3]])
        got = trop_mat_mul(b, c)
        assert got.entries == TropMatrix.make(
            [[0, d2, d3], [d2, 2 * d2, d2 + d3], [d3, d2 + d3, 2 * d3]]
        ).entries

    def test_mirror_factorization(self):
        m1 = TropMatrix.make([[0, 2], [2, 0], [1, 0]])
        got = trop_mat_mul(m1, m1.transpose())
        assert got.entries == TropMatrix.make([[0, 2, 1], [2, 0, 0], [1, 0, 0]]).entries

    def test_zero_column_gives_row_minima(self):
        b = TropMatrix.make([[3, 1], [0, 5]])
        z = TropMatrix.make([[0], [0]])
        assert trop_mat_mul(b, z).entries == ((F(1),), (F(0),))


class TestBarvinok:
    def test_eq1_not_barvinok2(self):
        rec = barvinok_rank2(EQ1)
        assert not rec.ok and rec.kind == "tree_not_caterpillar"

    def test_mirror_matrix_is_sym_barvinok(self):
        a = TropMatrix.make([[0, 2, 1], [2, 0, 0], [1, 0, 0]], symmetric=True)
        rec = sym_barvinok_rank2(a)
        assert rec.ok
        b = rec.witness
        assert trop_mat_mul(b, b.transpose()).entries == a.entries

    def test_witness_factors_exactly(self):
        rng = random.Random(555)
        hits = 0
        for k in range(60):
            d, n = rng.randint(2, 5), rng.randint(2, 5)
            a = random_rank2_matrix(rng, d, n)
            rec = barvinok_rank2(a)
            if rec.ok:
                hits += 1
                b, c = rec.witness
                assert trop_mat_mul(b, c).entries == a.entries
        assert hits > 10

    def test_agrees_with_brute_force(self):
        rng = random.Random(99)
        for k in range(30):
            d, n = rng.randint(2, 4), rng.randint(2, 4)
            a = random_rank2_matrix(rng, d, n)
            fast = barvinok_rank2(a).ok
            assert fast == brute_barvinok2(a)
