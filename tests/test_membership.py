"""Membership oracles across the four field modes."""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import SYM7_A, SYM7_B
from samples import (
    random_matrix,
    random_rank2_matrix,
    random_sym_matrix,
    random_sym_rank2_matrix,
    rational,
    scale_rows_cols,
    scale_symmetric,
)
from troplift.fixtures import fixture
from troplift.membership import (
    member_corank1,
    member_rank2,
    member_sym_corank1,
    member_sym_rank2,
    sym_corank1_edges,
)
from troplift.newton import edge_positive_ok
from troplift.tropmat import TropMatrix

F = Fraction
MODES = ("C", "R", "C+", "R+")

EQ1 = fixture("eq1")
EX52 = fixture("ex52")


def verdicts(fn, a):
    return {mode: fn(a, mode).verdict for mode in MODES}


def monotone(v):
    # R+ -> C+ -> C and R+ -> R -> C
    ok = True
    if v["R+"]:
        ok = ok and v["C+"] and v["R"]
    if v["C+"]:
        ok = ok and v["C"]
    if v["R"]:
        ok = ok and v["C"]
    return ok


class TestRank2:
    def test_eq1(self):
        v = verdicts(member_rank2, EQ1)
        assert v == {"C": True, "R": True, "C+": False, "R+": False}

    def test_caterpillar_true_everywhere(self):
        a = fixture("fig4a")
        assert verdicts(member_rank2, a) == {m: True for m in MODES}

    def test_zeros_true_everywhere(self):
        z = TropMatrix.make([[0, 0], [0, 0]])
        assert verdicts(member_rank2, z) == {m: True for m in MODES}


class TestSymRank2:
    def test_fig2a_true_everywhere(self):
        assert verdicts(member_sym_rank2, fixture("fig2a")) == {m: True for m in MODES}

    def test_eq1_sym_rank_3(self):
        v = verdicts(member_sym_rank2, EQ1)
        assert v == {m: False for m in MODES}

    def test_fig4a_spine(self):
        assert verdicts(member_sym_rank2, fixture("fig4a")) == {m: True for m in MODES}


class TestCorank1:
    def test_two_by_two_zeros(self):
        z = TropMatrix.make([[0, 0], [0, 0]])
        assert verdicts(member_corank1, z) == {m: True for m in MODES}

    def test_same_sign_three_cycles(self):
        v = verdicts(member_corank1, EQ1)
        assert v == {"C": True, "R": True, "C+": False, "R+": False}

    def test_unique_argmin(self):
        a = TropMatrix.make([[0, 1], [1, 1]])
        assert verdicts(member_corank1, a) == {m: False for m in MODES}


class TestSymCorank1:
    def test_ex52(self):
        v = verdicts(member_sym_corank1, EX52)
        assert v == {"C": True, "R": True, "C+": True, "R+": False}
        r = member_sym_corank1(EX52, "R+")
        assert r.reason["failure"] == "minor_signs"
        lat2 = [e for e in r.reason["edges"] if e["edge"].lattice_length == 2]
        assert lat2 and all(rep["same_sign_choice"] is False for rep in lat2[0]["minor_reports"])

    def test_lattice1_instance(self):
        a = TropMatrix.make([[0, 0, 5], [0, 0, 5], [5, 5, 0]], symmetric=True)
        assert verdicts(member_sym_corank1, a) == {m: True for m in MODES}

    def test_unique_class(self):
        ident = TropMatrix.make([[1, 0, 0], [0, 1, 0], [0, 0, 1]], symmetric=True)
        assert verdicts(member_sym_corank1, ident) == {m: False for m in MODES}

    def test_lattice2_cycle_length_6_not_positive(self):
        # a 6-cycle midpoint: length 4k+2, excluded from the positive part
        n = 6
        ent = [[10] * n for _ in range(n)]
        cyc = [0, 1, 2, 3, 4, 5]
        for k in range(6):
            i, j = cyc[k], cyc[(k + 1) % 6]
            ent[i][j] = ent[j][i] = 0
        a = TropMatrix.make(ent, symmetric=True)
        v = verdicts(member_sym_corank1, a)
        assert v["C"] and v["R"]
        assert not v["C+"] and not v["R+"]

    def test_minor_pairs_sit_on_the_even_cycle_behind_a_triangle(self):
        a = TropMatrix.make(SYM7_A, symmetric=True)
        (edge,) = sym_corank1_edges(a)
        assert edge["minor_pair"] == (3, 4)
        pairs = [rep["pair"] for rep in edge["minor_reports"]]
        assert pairs == [(3, 4), (4, 5), (5, 6), (6, 3)]
        assert edge["exact_span"] and edge["qualifies_r_plus"]
        assert verdicts(member_sym_corank1, a) == {m: True for m in MODES}

    def test_opposed_minors_on_the_even_cycle_refuse_r_plus(self):
        b = TropMatrix.make(SYM7_B, symmetric=True)
        assert verdicts(member_sym_corank1, b) == {"C": True, "R": True, "C+": True, "R+": False}
        r = member_sym_corank1(b, "R+")
        assert r.reason["failure"] == "minor_signs"
        (edge,) = r.reason["edges"]
        assert edge["minor_pair"] == (2, 3)
        assert not any(rep["same_sign_choice"] for rep in edge["minor_reports"])


class TestProperties:
    def test_mode_monotonicity(self):
        rng = random.Random(808)
        fns = {
            "rank2": (member_rank2, lambda: random_matrix(rng, rng.randint(2, 4), rng.randint(2, 4))),
            "sym_rank2": (member_sym_rank2, lambda: random_sym_matrix(rng, rng.randint(2, 4))),
            "corank1": (member_corank1, lambda: random_matrix(rng, *(lambda n: (n, n))(rng.randint(2, 4)))),
            "sym_corank1": (member_sym_corank1, lambda: random_sym_matrix(rng, rng.randint(2, 4))),
        }
        for name, (fn, gen) in fns.items():
            for _ in range(60):
                v = verdicts(fn, gen())
                assert monotone(v), (name, v)

    def test_real_equals_complex_for_rank_and_corank(self):
        rng = random.Random(809)
        for _ in range(60):
            a = random_matrix(rng, rng.randint(2, 4), rng.randint(2, 4))
            assert member_rank2(a, "C").verdict == member_rank2(a, "R").verdict
            s = random_sym_matrix(rng, rng.randint(2, 4))
            assert member_sym_rank2(s, "C").verdict == member_sym_rank2(s, "R").verdict
            assert member_sym_corank1(s, "C").verdict == member_sym_corank1(s, "R").verdict
            q = random_matrix(rng, 3, 3)
            assert member_corank1(q, "C").verdict == member_corank1(q, "R").verdict
            assert member_corank1(q, "C+").verdict == member_corank1(q, "R+").verdict

    def test_scaling_invariance(self):
        rng = random.Random(810)
        for _ in range(25):
            d, n = rng.randint(2, 4), rng.randint(2, 4)
            a = random_rank2_matrix(rng, d, n)
            rows = [rational(rng) for _ in range(d)]
            cols = [rational(rng) for _ in range(n)]
            b = scale_rows_cols(a, rows, cols)
            for mode in MODES:
                assert member_rank2(a, mode).verdict == member_rank2(b, mode).verdict
        for _ in range(25):
            n = rng.randint(2, 4)
            s = random_sym_rank2_matrix(rng, n)
            s = TropMatrix.make(s.entries, symmetric=True)
            shift = [rational(rng) for _ in range(n)]
            s2 = scale_symmetric(s, shift)
            for mode in MODES:
                assert (
                    member_sym_rank2(s, mode).verdict
                    == member_sym_rank2(s2, mode).verdict
                )

    def test_sym_corank1_scaling_invariance(self):
        rng = random.Random(811)
        for _ in range(40):
            n = rng.randint(2, 4)
            s = random_sym_matrix(rng, n)
            shift = [F(rng.randint(-3, 3)) for _ in range(n)]
            s2 = scale_symmetric(s, shift)
            for mode in MODES:
                assert (
                    member_sym_corank1(s, mode).verdict
                    == member_sym_corank1(s2, mode).verdict
                )


def _positive_rule(edges: list, mode: str) -> tuple:
    """(verdict, boundary, failure) of C+ or R+ re-derived from the payload's
    edge dicts: a qualifying edge decides, and the verdict is a boundary one
    when none of them spans the tie exactly; R+ fails on its minors when a
    C+ edge of lattice length 2 is there."""
    qualifying = [e for e in edges if e["qualifies_r_plus" if mode == "R+" else "qualifies_c_plus"]]
    if qualifying:
        return True, not any(e["exact_span"] for e in qualifying), None
    if mode == "R+" and any(e["qualifies_c_plus"] and e["edge"].lattice_length == 2 for e in edges):
        return False, None, "minor_signs"
    return False, None, "same_signs" if edges else "no_edge"


@st.composite
def _small_symmetric(draw):
    """Symmetric 3x3 to 6x6 matrices with entries 0-2, so that ties are common."""
    n = draw(st.integers(3, 6))
    upper = {(i, j): draw(st.integers(0, 2)) for i in range(n) for j in range(i, n)}
    rows = [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    return TropMatrix.make(rows, symmetric=True)


class TestPositivePartsReference:
    """C+ and R+ of the symmetric singular set agree with their rule, read
    off the payload's edge dicts, whose fields are checked against the
    edge's own data."""

    @staticmethod
    def decided(a, mode) -> tuple:
        r = member_sym_corank1(a, mode)
        got = (r.verdict, r.reason.get("boundary"), r.reason.get("failure"))
        if not r.reason["tie"]:
            assert got == (False, None, "no_tie") and "edges" not in r.reason
            return got
        size = len(r.reason["argmin"])
        for e in r.reason["edges"]:
            edge, reports = e["edge"], e["minor_reports"]
            assert e["exact_span"] == (size == edge.lattice_length + 1)
            assert e["qualifies_c_plus"] == edge_positive_ok(edge) and e["qualifies_r"] is True
            assert (reports is None) == (edge.lattice_length == 1)
            agree = reports is None or reports[0]["same_sign_choice"]
            assert e["qualifies_r_plus"] == (e["qualifies_c_plus"] and agree)
            assert e["minor_pair"] == (None if reports is None else reports[0]["pair"])
        assert got == _positive_rule(r.reason["edges"], mode)
        return got

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_small_symmetric())
    def test_drawn_matrices(self, a):
        for mode in ("C+", "R+"):
            self.decided(a, mode)

    @pytest.mark.parametrize(
        "rows, c_plus, r_plus",
        [
            # a tie of two classes on a lattice length 1 edge: exact
            ([[0, 0, 5], [0, 0, 5], [5, 5, 0]], (True, False, None), (True, False, None)),
            # a tie of three on a lattice length 2 edge and its midpoint: exact
            (
                [[10, 0, 10, 0], [0, 10, 0, 10], [10, 0, 10, 0], [0, 10, 0, 10]],
                (True, False, None),
                (True, False, None),
            ),
            # the 4-cycle's minors are sign-forced opposite
            (EX52, (True, False, None), (False, None, "minor_signs")),
            # a tie of four that strictly contains its one qualifying edge
            ([[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 3, 2], [0, 1, 2, 3]], (True, True, None), (True, True, None)),
        ],
        ids=["tie2", "tie3", "ex52", "boundary4"],
    )
    def test_fixed_ties(self, rows, c_plus, r_plus):
        a = rows if isinstance(rows, TropMatrix) else TropMatrix.make(rows, symmetric=True)
        assert (self.decided(a, "C+"), self.decided(a, "R+")) == (c_plus, r_plus)
