"""Lift constructions and the independent verifier."""

import json
import random
import time
from fractions import Fraction
from functools import partial
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import SYM7_A, SYM7_B
from rank_reference import ref_positive_generators_check
from samples import (
    positive_length,
    random_barvinok2_matrix,
    random_matrix,
    random_rank2_matrix,
    random_sym_rank2_matrix,
    scale_series,
)
from test_series_det import ref_det_vanishes
from troplift import jsonio, trees, tropical
from troplift.errors import (
    MinorSignsOpposed,
    NotBarvinok2,
    NotCaterpillar,
    NotSingular,
    SameSigns,
    SizeLimit,
)
from troplift.fixtures import fixture
from troplift.lifts import (
    LiftCertificate,
    lift_corank1,
    lift_rank2_positive,
    lift_rank2_real,
    lift_sym_caterpillar,
    lift_sym_corank1,
    lift_sym_rank2_real,
    series_det,
    verify_lift,
)
from troplift.membership import member_corank1
from troplift.puiseux import PuiseuxSeries
from troplift.quadext import QuadExt
from troplift.tropical import trop_rank
from troplift.tropmat import TropMatrix

F = Fraction
GOLDEN = Path(__file__).parent / "golden"


def mono(c, e):
    return PuiseuxSeries.monomial(F(c), F(e))


class TestRank2Positive:
    def test_rank1_subcase_witness(self):
        a = TropMatrix.make([[0, 2], [1, 3]])
        cert = lift_rank2_positive(a)
        assert cert.valid and cert.positivity == "all-positive"
        b, c = tropical.barvinok_rank2(a).witness
        want = [
            [PuiseuxSeries.make([(b[i, k] + c[k, j], F(1)) for k in range(b.cols)]) for j in range(2)]
            for i in range(2)
        ]
        assert [list(r) for r in cert.lift] == want

    def test_spine_matrix_entries_are_positive_sums(self):
        cert = lift_rank2_positive(fixture("fig4a"))
        assert cert.valid and cert.positivity == "all-positive"
        assert all(
            all(coef > 0 for _, coef in e.terms) for row in cert.lift for e in row
        )

    def test_random_samples_verify(self):
        rng = random.Random(11)
        for k in range(40):
            a = random_barvinok2_matrix(rng, rng.randint(2, 4), rng.randint(2, 5))
            cert = lift_rank2_positive(a, seed=k)
            assert cert.valid

    def test_non_caterpillar_rejected(self):
        with pytest.raises(NotBarvinok2):
            lift_rank2_positive(fixture("eq1"))


class TestSymCaterpillar:
    def test_mirror_product_matches_displayed_formula(self):
        d2, d3 = F(2), F(1)
        cert = lift_sym_caterpillar(fixture("fig2a"))
        assert cert.valid and cert.method == "mirror_factor_product"
        one = F(1)
        want = [
            [[(F(0), one), (2 * d2, one)], [(d2, F(2))], [(d3, one), (d2, one)]],
            [[(d2, F(2))], [(F(0), one), (2 * d2, one)], [(F(0), one), (d2 + d3, one)]],
            [[(d3, one), (d2, one)], [(F(0), one), (d2 + d3, one)], [(F(0), one), (2 * d3, one)]],
        ]
        got = [[list(e.terms) for e in row] for row in cert.lift]
        assert got == want

    def test_spine_recursion_explicit_entries(self):
        cert = lift_sym_caterpillar(fixture("fig4a"))
        assert cert.valid and cert.method == "spine_recursion"
        # entries of the first column are 1 + t^{d_i}
        lift = cert.lift
        assert lift[0][0].terms == ((F(0), F(1)),)
        d = {1: F(3), 2: F(2), 3: F(1)}
        # row 1 pairs with every later index at valuation zero
        for j in (1, 2, 3):
            assert lift[0][j].val() == 0

    def test_spine_with_zero_distances_degenerates(self):
        a = TropMatrix.make([[0] * 3 for _ in range(3)], symmetric=True)
        cert = lift_sym_caterpillar(a)
        assert cert.valid

    def test_mirror_factorizations_of_both_four_leaf_types(self):
        for name in ("fig3b", "fig3c"):
            cert = lift_sym_caterpillar(fixture(name))
            assert cert.valid, name
            assert cert.method == "mirror_factor_product"

    def test_subtraction_free_constructions_have_positive_coefficients(self):
        for name in ("fig2a", "fig4a", "fig3b"):
            cert = lift_sym_caterpillar(fixture(name))
            assert all(
                coef > 0 for row in cert.lift for e in row for _, coef in e.terms
            )

    def test_non_caterpillar_rejected(self):
        branched = TropMatrix.make(
            [[0, 2, 1, 0], [2, 0, 1, 0], [1, 1, 2, 1], [0, 0, 1, 2]], symmetric=True
        )
        with pytest.raises(NotCaterpillar):
            lift_sym_caterpillar(branched)

    def test_positive_generator_property_of_targets(self):
        # verified positive symmetric rank 2 certificates have all 3x3
        # minors minimized on opposite-sign monomial pairs
        rng = random.Random(21)
        checked = 0
        for k in range(30):
            n = rng.randint(3, 5)
            a = random_sym_rank2_matrix(rng, n)
            a = TropMatrix.make(a.entries, symmetric=True)
            try:
                cert = lift_sym_caterpillar(a, seed=k)
            except NotCaterpillar:
                continue
            assert cert.valid
            checked += 1
            assert ref_positive_generators_check(a)
        assert checked >= 10


def _inverted_edge_tree(rng) -> trees.BicoloredTree:
    """Symbic tree whose color swap fixes no node: it inverts the edge
    0-1 and maps node 2m to its mirror 2m+1.  Each end of the edge has two
    internal branches with two leaf nodes each; a leaf node holds blue k
    and red k+1, its mirror red k and blue k+1 (8 pairs)."""
    adj = {x: {} for x in range(14)}

    def mirrored(x, y, w):
        for p, q in ((x, y), (x + 1, y + 1)):
            adj[p][q] = adj[q][p] = w

    adj[0][1] = adj[1][0] = positive_length(rng)
    for branch in (2, 4):
        mirrored(0, branch, positive_length(rng))
        for end in (2 * branch + 2, 2 * branch + 4):
            mirrored(branch, end, positive_length(rng))
    leaves = []
    for k, end in enumerate((6, 8, 10, 12)):
        leaves += [
            trees.Leaf("blue", 2 * k + 1, end),
            trees.Leaf("red", 2 * k + 2, end),
            trees.Leaf("red", 2 * k + 1, end + 1),
            trees.Leaf("blue", 2 * k + 2, end + 1),
        ]
    return trees.BicoloredTree(14, adj, tuple(leaves))


class TestSymRank2Real:
    def test_caterpillar_inputs_delegate(self):
        cert = lift_sym_rank2_real(fixture("fig2a"))
        assert cert.valid and cert.positivity == "all-positive"

    def test_non_caterpillar_instance(self):
        a = TropMatrix.make(
            [[0, 2, 1, 0], [2, 0, 1, 0], [1, 1, 2, 1], [0, 0, 1, 2]], symmetric=True
        )
        cert = lift_sym_rank2_real(a)
        assert cert.valid and cert.method == "mirrored_generators"
        assert cert.claimed == "symmetric rank<=2"

    def test_random_instances(self):
        rng = random.Random(31)
        for k in range(60):
            n = rng.randint(2, 5)
            a = random_sym_rank2_matrix(rng, n)
            a = TropMatrix.make(a.entries, symmetric=True)
            cert = lift_sym_rank2_real(a, seed=k)
            assert cert.valid

    def test_inverted_edge_without_fixed_node(self):
        rng = random.Random(77)
        for k in range(6):
            tree = _inverted_edge_tree(rng)
            a = TropMatrix.make(trees.tree_to_matrix(tree, 8, 8).entries, symmetric=True)
            rebuilt = trees.tree_from_rank2(a)
            rep = trees.symbic_classify(rebuilt)
            assert rep.kind == "symbic" and not rep.fixed_nodes and rep.swapped_edge
            assert not trees.is_caterpillar(rebuilt)
            cert = lift_sym_rank2_real(a, seed=k)
            assert cert.valid and cert.method == "mirrored_generators"

    def test_glued_blocks_matrix(self):
        # positive diagonal block, a zero row, and a nonnegative block
        a = TropMatrix.make([[2, 0, 0], [0, 0, 0], [0, 0, 2]], symmetric=True)
        cert = lift_sym_rank2_real(a)
        assert cert.valid

    def test_deterministic_output(self):
        a = TropMatrix.make(
            [[0, 2, 1, 0], [2, 0, 1, 0], [1, 1, 2, 1], [0, 0, 1, 2]], symmetric=True
        )
        c1 = jsonio.dumps(jsonio.encode_certificate(lift_sym_rank2_real(a, seed=5)))
        c2 = jsonio.dumps(jsonio.encode_certificate(lift_sym_rank2_real(a, seed=5)))
        assert c1 == c2


class TestCorank1:
    def test_two_by_two_zeros_solves_linear_entry(self):
        z = TropMatrix.make([[0, 0], [0, 0]])
        cert = lift_corank1(z, "R+")
        assert cert.valid
        m = cert.lift
        # x = c12 c21 / c22 in the corner the solver chose
        det = series_det([list(r) for r in m])
        assert det.is_known_zero()

    def test_unique_argmin_rejected(self):
        with pytest.raises(NotSingular):
            lift_corank1(TropMatrix.make([[0, 1], [1, 1]]), "R")

    def test_same_signs_rejected_in_positive_mode(self):
        with pytest.raises(SameSigns):
            lift_corank1(fixture("eq1"), "R+")

    def test_eq1_real_mode_lifts(self):
        cert = lift_corank1(fixture("eq1"), "R")
        assert cert.valid and cert.positivity == "none"

    def test_random_opposite_sign_ties(self):
        rng = random.Random(41)
        done = 0
        while done < 25:
            n = rng.randint(2, 4)
            a = random_matrix(rng, n, n, -3, 3)
            v = member_corank1(a, "R+")
            if not v.verdict:
                continue
            done += 1
            cert = lift_corank1(a, "R+", seed=done)
            assert cert.valid
            assert cert.transcript[-1] == {
                "check": "determinant_vanishes",
                "ok": True,
                "detail": "exactly zero",
            }
            assert all(x.trunc is None for row in cert.lift for x in row)


class TestSymCorank1:
    def test_ex52_positive_mode_opposed(self):
        with pytest.raises(MinorSignsOpposed):
            lift_sym_corank1(fixture("ex52"), "R+")

    def test_ex52_real_mode_verified(self):
        cert = lift_sym_corank1(fixture("ex52"), "R")
        assert cert.valid and cert.claimed == "symmetric singular"

    def test_lattice1_positive_instance(self):
        a = TropMatrix.make([[0, 0, 5], [0, 0, 5], [5, 5, 0]], symmetric=True)
        cert = lift_sym_corank1(a, "R+")
        assert cert.valid and cert.positivity == "all-positive"

    def test_no_tie_rejected(self):
        ident = TropMatrix.make([[1, 0, 0], [0, 1, 0], [0, 0, 1]], symmetric=True)
        with pytest.raises(NotSingular):
            lift_sym_corank1(ident, "R")

    def test_boundary_closure_tie_reports_infeasibility(self):
        # the tie strictly contains the qualifying edge; the leading
        # determinant coefficient is a square plus a positive term, so no
        # exact positive lift exists and the verdict rests on closure
        from troplift.errors import DegenerateGeneric
        from troplift.membership import member_sym_corank1

        a = TropMatrix.make(
            [[1, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], symmetric=True
        )
        verdict = member_sym_corank1(a, "R+")
        assert verdict.verdict and verdict.reason["boundary"]
        with pytest.raises(DegenerateGeneric, match="closure"):
            lift_sym_corank1(a, "R+")
        # the real-mode lift is unconstrained by signs and still exists
        cert = lift_sym_corank1(a, "R")
        assert cert.valid

    def test_fat_tie_with_exact_positive_lift(self):
        # the zero matrix ties everything, yet an exact positive singular
        # lift exists; boundary handling must not block solvable cases
        z = TropMatrix.make([[0] * 3 for _ in range(3)], symmetric=True)
        cert = lift_sym_corank1(z, "R+")
        assert cert.valid and cert.positivity == "all-positive"

    @pytest.mark.parametrize("mode", ["R", "R+"])
    def test_solve_on_the_even_cycle_behind_a_triangle(self, mode):
        cert = lift_sym_corank1(TropMatrix.make(SYM7_A, symmetric=True), mode)
        assert cert.valid and cert.claimed == "symmetric singular"

    def test_opposed_minors_on_the_even_cycle(self):
        b = TropMatrix.make(SYM7_B, symmetric=True)
        with pytest.raises(MinorSignsOpposed):
            lift_sym_corank1(b, "R+")
        assert lift_sym_corank1(b, "R").valid

    def test_random_real_instances(self):
        rng = random.Random(51)
        done = 0
        while done < 20:
            n = rng.randint(2, 4)
            a = TropMatrix.make(
                [[0] * n for _ in range(n)] if rng.random() < 0.1 else None
                or _sym_random(rng, n),
                symmetric=True,
            )
            from troplift.membership import member_sym_corank1

            if not member_sym_corank1(a, "R").verdict:
                continue
            done += 1
            cert = lift_sym_corank1(a, "R", seed=done)
            assert cert.valid


def _sym_random(rng, n):
    ent = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            ent[i][j] = ent[j][i] = rng.randint(-3, 3)
    return ent


class TestVerifier:
    def test_tampered_certificate_fails(self):
        cert = lift_sym_caterpillar(fixture("fig2a"))
        assert cert.valid
        rows = [list(r) for r in cert.lift]
        rows[0][1] = rows[0][1].shift(F(1))  # bump one exponent
        bad = LiftCertificate(cert.target, tuple(tuple(r) for r in rows), cert.claimed, cert.positivity)
        verify_lift(bad)
        assert not bad.valid
        failing = [s["check"] for s in bad.transcript if not s["ok"]]
        assert "valuations" in failing

    def test_rank_claim_detects_rank3(self):
        one = PuiseuxSeries.constant(F(1))
        t = PuiseuxSeries.monomial(F(1), F(1))
        rows = ((one, one, one), (one, one + t, one), (one, one, one + t))
        cert = LiftCertificate(
            TropMatrix.make([[0] * 3 for _ in range(3)]), rows, "rank<=2", "none"
        )
        verify_lift(cert)
        assert not cert.valid

    def test_certificate_json_roundtrip(self):
        cert = lift_sym_caterpillar(fixture("fig2a"))
        obj = json.loads(jsonio.dumps(jsonio.encode_certificate(cert)))
        back = jsonio.decode_certificate(obj)
        assert back.lift == cert.lift
        assert back.target.entries == cert.target.entries
        verify_lift(back)
        assert back.valid

    def test_unknown_claim_and_positivity_fail_closed(self):
        good = lift_rank2_positive(fixture("fig4a"))
        for claimed, positivity in (
            ("bogus", "all-positive"),
            ("rank<=1", "all-positive"),
            ("nonsingular", "all-positive"),
            ("rank<=2", "maybe"),
        ):
            cert = LiftCertificate(good.target, good.lift, claimed, positivity)
            verify_lift(cert)
            assert not cert.valid
            failing = [s["check"] for s in cert.transcript if not s["ok"]]
            assert failing == ["claim" if claimed != "rank<=2" else "positivity"]
            obj = json.loads(jsonio.dumps(jsonio.encode_certificate(cert)))
            with pytest.raises(ValueError):
                jsonio.decode_certificate(obj)
        again = LiftCertificate(good.target, good.lift, good.claimed, good.positivity)
        assert verify_lift(again) == good.transcript


def _random_entry(rng, radicand=None, dens=(1, 2)):
    """A monomial with a signed coefficient, over sqrt(radicand) when one is
    given, and an exponent over one of `dens`."""
    c = F(rng.choice((-3, -2, -1, 1, 2, 3)))
    if radicand is not None:
        c = QuadExt.make(c, F(rng.choice((-2, -1, 1, 2)), rng.choice((1, 3))), radicand)
    return PuiseuxSeries.monomial(c, F(rng.randint(0, 6), rng.choice(dens)))


def _product(u, v):
    zero = PuiseuxSeries.zero()
    return [
        [sum((u[i][k] * v[k][j] for k in range(len(v))), zero) for j in range(len(v[0]))]
        for i in range(len(u))
    ]


def _rank_k(rng, d, n, k, **entry):
    u = [[_random_entry(rng, **entry) for _ in range(k)] for _ in range(d)]
    v = [[_random_entry(rng, **entry) for _ in range(n)] for _ in range(k)]
    return _product(u, v)


def _full_3x3_scan(rows):
    """Reference: every 3x3 minor through series_det and the Fraction
    min-plus pass (ref_det_vanishes), in lexicographic order."""
    d, n = len(rows), len(rows[0])
    for ri in combinations(range(d), 3):
        for cj in combinations(range(n), 3):
            z, why = ref_det_vanishes([[rows[i][j] for j in cj] for i in ri])
            if not z:
                return False, f"minor {ri}x{cj} {why}"
    exact = all(e.trunc is None for row in rows for e in row)
    return True, "all 3x3 minors vanish" + (" (exact)" if exact else " (to truncation)")


def _minors_step(rows):
    target = [[e.val() if e.terms else 0 for e in row] for row in rows]
    cert = LiftCertificate(
        TropMatrix.make(target), tuple(tuple(r) for r in rows), "rank<=2", "none"
    )
    verify_lift(cert)
    (step,) = [s for s in cert.transcript if s["check"] == "minors_3x3_vanish"]
    return step["ok"], step["detail"]


@st.composite
def _drawn_products(draw):
    """A d x n product of d x k and k x n monomial matrices, 1 <= d, n <= 5
    and k <= 3: signed coefficients, over sqrt(2) or sqrt(3/5) or
    rational, exponents over 1, 2 or 3, some entries exact zeros, and
    sometimes one entry perturbed off the product.  Returns the rows and
    whether they are an unperturbed product with k <= 2."""
    d, n, k = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 3))
    radicand = draw(st.sampled_from((None, F(2), F(3, 5))))

    def entry():
        a = F(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
        b = 0 if radicand is None else F(draw(st.integers(-2, 2)), draw(st.integers(1, 3)))
        c = a if radicand is None else QuadExt.make(a, b, radicand)
        return PuiseuxSeries.monomial(c, F(draw(st.integers(-4, 6)), draw(st.integers(1, 3))))

    rows = _product(
        [[entry() for _ in range(k)] for _ in range(d)],
        [[entry() for _ in range(n)] for _ in range(k)],
    )
    perturbed = draw(st.booleans())
    if perturbed:
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, n - 1))
        rows[i][j] = rows[i][j] + PuiseuxSeries.monomial(F(1), F(draw(st.integers(0, 4))))
    return rows, k <= 2 and not perturbed


@st.composite
def _truncated_products(draw):
    """_drawn_products with one to three entries truncated, at an order
    above their valuation or at or below it, which leaves no known term."""
    rows, _ = draw(_drawn_products())
    d, n = len(rows), len(rows[0])
    for _ in range(draw(st.integers(1, 3))):
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, n - 1))
        order, s = F(draw(st.integers(-6, 12)), draw(st.integers(1, 3))), rows[i][j]
        rows[i][j] = PuiseuxSeries.make(s.terms, order if s.trunc is None else min(s.trunc, order))
    return rows


class TestBorderedRankCheck:
    """verify_lift's minors_3x3_vanish step equals a full 3x3 scan."""

    def _cases(self):
        rng = random.Random(3301)
        for d, n in ((3, 3), (3, 4), (4, 4), (4, 5), (5, 5), (5, 6)):
            for k in (1, 2, 3):
                rows = _rank_k(rng, d, n, k)
                yield rows
                bumped = [r[:] for r in rows]  # one perturbed entry
                i, j = rng.randrange(d), rng.randrange(n)
                bumped[i][j] = bumped[i][j] + PuiseuxSeries.monomial(F(1), F(rng.randint(0, 4)))
                yield bumped
                zero_row = [r[:] for r in rows]
                zero_row[rng.randrange(d)] = [PuiseuxSeries.zero()] * n
                yield zero_row
            # first nonzero 2x2 minor off the top-left corner: rows 0 and 1
            # proportional, column 0 zero
            rows = _rank_k(rng, d, n, 2)
            rows[1] = [scale_series(e, F(-2)) for e in rows[0]]
            for r in rows:
                r[0] = PuiseuxSeries.zero()
            yield rows
            rows = [r[:] for r in rows]
            rows[d - 1][n - 1] = rows[d - 1][n - 1] + PuiseuxSeries.monomial(F(1), F(7))
            yield rows

    def _lattice_cases(self):
        """Coefficients over one radicand, exponents over 2 and 3, exact
        zeros, and shapes with fewer than three rows or columns; each with
        whether it is a product with k <= 2, whose 3x3 minors vanish."""
        rng = random.Random(3302)
        for radicand in (F(2), F(3, 5)):
            for d, n in ((3, 4), (4, 4), (4, 5)):
                for k in (1, 2, 3):
                    yield _rank_k(rng, d, n, k, radicand=radicand), k <= 2
        for d, n in ((3, 3), (4, 5), (5, 4)):
            for k in (1, 2, 3):
                yield _rank_k(rng, d, n, k, dens=(2, 3)), k <= 2
        for d, n in ((4, 4), (4, 5), (5, 5)):
            for k in (2, 3):
                u = [[_random_entry(rng) for _ in range(k)] for _ in range(d)]
                v = [[_random_entry(rng) for _ in range(n)] for _ in range(k)]
                u[rng.randrange(d)][0] = PuiseuxSeries.zero()
                v[rng.randrange(k)][rng.randrange(n)] = PuiseuxSeries.zero()
                rows = _product(u, v)
                yield rows, k <= 2
                rows = [r[:] for r in rows]  # zero entries in a rank-k product
                for _ in range(3):
                    rows[rng.randrange(d)][rng.randrange(n)] = PuiseuxSeries.zero()
                yield rows, False
        for d, n in ((1, 1), (1, 4), (2, 2), (2, 5), (4, 2), (3, 1), (5, 2)):
            for k in (1, 2, 3):
                yield _rank_k(rng, d, n, k, dens=(1, 3)), True
        yield [[PuiseuxSeries.zero()] * 4 for _ in range(4)], True

    def test_matches_full_scan(self):
        for rows in self._cases():
            assert _minors_step(rows) == _full_3x3_scan(rows)

    def test_matches_full_scan_on_the_grid_cases(self):
        verdicts = []
        for rows, low_rank in self._lattice_cases():
            got = _minors_step(rows)
            assert got == _full_3x3_scan(rows)
            assert got[0] or not low_rank
            verdicts.append(got[0])
        assert 0 < verdicts.count(False) < len(verdicts)

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_drawn_products())
    def test_matches_full_scan_on_drawn_products(self, case):
        rows, low_rank = case
        got = _minors_step(rows)
        assert got == _full_3x3_scan(rows)
        assert got[0] or not low_rank

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_truncated_products())
    def test_truncated_scan_matches_the_per_minor_reference(self, rows):
        assert _minors_step(rows) == _full_3x3_scan(rows)

    def test_truncated_entry_scans_every_minor(self):
        rows = _rank_k(random.Random(12), 4, 4, 2)
        rows[2][3] = PuiseuxSeries.make(rows[2][3].terms, F(30))
        got = _minors_step(rows)
        assert got == _full_3x3_scan(rows) == (True, "all 3x3 minors vanish (to truncation)")

    def test_vacuous_truncated_minor_fails(self):
        # rank 1, with entry (0, 0) replaced by O(t^0): every permutation of
        # the 3x3 minor has valuation sum 6, so the minor is "zero" only up
        # to its tropical value
        rows = [[mono(1, i + j) for j in range(3)] for i in range(3)]
        rows[0][0] = PuiseuxSeries((), F(0))
        assert _minors_step(rows) == (
            False,
            "minor (0, 1, 2)x(0, 1, 2) known only to order 6, not above its tropical value 6",
        )
        rows[0][0] = PuiseuxSeries.monomial(F(1), F(0), F(1))
        assert _minors_step(rows) == (True, "all 3x3 minors vanish (to truncation)")

    def test_exact_rank2_needs_only_bordered_minors(self, monkeypatch):
        """On the grid, the two pivot rows are expanded once, over all C(5, 2)
        column pairs, and each bordering 3x3 minor is one more row step;
        no minor goes through series_det."""
        import troplift.verify as verify_mod

        dets, steps = [], []
        row_step = verify_mod._row_step

        def counting_det(mat):
            dets.append(len(mat))
            return series_det(mat)

        def counting_step(partial, row, target, *rest):
            steps.append(target.bit_count())
            return row_step(partial, row, target, *rest)

        monkeypatch.setattr(verify_mod, "series_det", counting_det)
        monkeypatch.setattr(verify_mod, "_row_step", counting_step)
        rows = _rank_k(random.Random(5), 4, 5, 2)
        assert _minors_step(rows) == (True, "all 3x3 minors vanish (exact)")
        assert steps.count(3) == (4 - 2) * (5 - 2)
        assert steps.count(2) == 10
        assert dets == []

    @pytest.mark.parametrize("case", ["singular", "truncated rank 2", "exact rank 3"])
    def test_verify_converts_once_and_builds_no_series(self, monkeypatch, case):
        """verify_lift puts the lift on its grid once, and every minor and
        determinant it checks reads that grid: a singular claim, a truncated
        rank-2 claim, and an exact rank-2 claim whose bordered minor is
        nonzero, which falls back to the 3x3 scan."""
        import troplift.verify as verify_mod

        if case == "singular":
            cert = jsonio.decode_certificate(
                json.loads((GOLDEN / "fig2a-corank1-R.json").read_text())
            )
            lift, claimed, target = cert.lift, cert.claimed, cert.target
        else:
            rows = _rank_k(random.Random(12), 4, 4, 2)
            if case == "truncated rank 2":
                rows[2][3] = PuiseuxSeries.make(rows[2][3].terms, F(30))
            else:
                rows[1][2] = rows[1][2] + PuiseuxSeries.monomial(F(1), F(3))
            lift, claimed = tuple(map(tuple, rows)), "rank<=2"
            target = TropMatrix.make([[e.val() for e in row] for row in rows])
        grids = []
        to_grid = verify_mod.series_grid

        def counting_grid(mat):
            grids.append(len(mat))
            return to_grid(mat)

        def no_series_det(mat):
            raise AssertionError("verify_lift called series_det")

        monkeypatch.setattr(verify_mod, "series_grid", counting_grid)
        monkeypatch.setattr(verify_mod, "series_det", no_series_det)
        cert = LiftCertificate(target, lift, claimed, "none")
        verify_lift(cert)
        assert grids == [len(lift)]
        checks = ("determinant_vanishes", "minors_3x3_vanish")
        (step,) = [s for s in cert.transcript if s["check"] in checks]
        assert step["ok"] == (case != "exact rank 3"), step

    @pytest.mark.parametrize("d", [2, 3])
    def test_wide_exact_rank2_lift_expands_only_the_subsets_it_uses(self, d):
        """A 40-column lift: the pivot rows make C(40, 1) + C(40, 2) subsets,
        not 2^40, and the check ends in well under a second."""
        rows = _rank_k(random.Random(40), d, 40, 2)
        start = time.perf_counter()
        ok, detail = _minors_step(rows)
        assert time.perf_counter() - start < 10
        assert (ok, detail) == (True, "all 3x3 minors vanish (exact)")


class TestOneAnalysisPerLift:
    """Each lift computes its deciding analysis once.  Every test starts
    with an empty analysis store (tests/conftest.py), so an analysis's
    fills count the computations the lift ran."""

    def test_sym_rank2_real_builds_one_tree(self, calls):
        ranks = calls(tropical, "trop_rank")
        assert lift_sym_rank2_real(fixture("fig2a")).method == "mirror_factor_product"
        assert tropical.FILLS["_rank2_tree"] == 1
        # the symmetric rank decides, from one plain rank read inside it;
        # no second plain rank follows it
        assert tropical.FILLS["sym_trop_rank"] == 1
        assert (tropical.FILLS["trop_rank"], len(ranks)) == (1, 1)

    @pytest.mark.parametrize("name", ["fig2a", "fig3b", "fig4a"])
    def test_sym_rank2_real_caterpillar_is_the_caterpillar_lift(self, name, calls):
        """The caterpillar branch answers the symmetric Barvinok test from
        the tree in hand, without a second rank: the plain rank is read
        once, by the symmetric one, and on the 4 x 4 fixtures it built the
        tree the Barvinok test reads.  It issues the same certificate as
        lift_sym_caterpillar."""
        ranks = calls(tropical, "trop_rank")
        cert = lift_sym_rank2_real(fixture(name))
        assert (tropical.FILLS["trop_rank"], len(ranks)) == (1, 1)
        assert tropical.FILLS["_rank2_tree"] == 1
        again = lift_sym_caterpillar(fixture(name))
        assert jsonio.dumps(jsonio.encode_certificate(cert)) == jsonio.dumps(
            jsonio.encode_certificate(again)
        )

    def test_sym_caterpillar_builds_one_tree(self):
        assert lift_sym_caterpillar(fixture("fig2a")).valid
        assert tropical.FILLS["_rank2_tree"] == 1

    @pytest.mark.parametrize("lift", [lift_sym_caterpillar, lift_sym_rank2_real], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("name", ["fig2a", "fig3b", "fig3c", "fig4a"])
    def test_caterpillar_lift_classifies_its_tree_once(self, lift, name, monkeypatch):
        """The spine recursion (fig4a) reads the symbic report of the
        Barvinok record, as the mirror product (fig2a, fig3b, fig3c) does,
        rather than classifying the tree a second time."""
        calls = []
        classify = trees.symbic_classify

        def counted(tree):
            calls.append(tree)
            return classify(tree)

        monkeypatch.setattr(trees, "symbic_classify", counted)
        cert = lift(fixture(name))
        spine = name == "fig4a"
        assert cert.method == ("spine_recursion" if spine else "mirror_factor_product")
        assert len(calls) == 1

    def test_rank2_real_runs_one_rank_scan(self):
        assert lift_rank2_real(fixture("eq1")).method == "frame_completion"
        assert tropical.FILLS["trop_rank"] == 1

    def test_sym_corank1_real_mode_runs_one_symmetric_determinant(self):
        assert lift_sym_corank1(fixture("ex52"), "R").valid
        assert tropical.FILLS["sym_trop_det"] == 1


class TestLiftBound:
    """`bound` caps each enumeration a lift runs, as in the member_*
    functions: the rank scan of a rank <= 2 input reaches 3x3 minors, and
    a determinant enumerates the permutations of all n = 4 rows."""

    @pytest.mark.parametrize(
        "lift, name",
        [
            (lift_rank2_positive, "fig3b"),
            (lift_rank2_real, "fig3b"),
            (lift_sym_caterpillar, "fig3b"),
            (lift_sym_rank2_real, "fig3b"),
            (partial(lift_corank1, mode="R"), "ex52"),
            (partial(lift_sym_corank1, mode="R"), "ex52"),
        ],
        ids=["rank2_positive", "rank2_real", "sym_caterpillar", "sym_rank2_real", "corank1", "sym_corank1"],
    )
    def test_enumeration_above_the_bound_is_refused(self, lift, name):
        with pytest.raises(SizeLimit):
            lift(fixture(name), bound=2)


class TestRankChain:
    def test_rank2_implies_verified_lift_implies_positive_when_caterpillar(self):
        rng = random.Random(61)
        for k in range(25):
            d, n = rng.randint(2, 4), rng.randint(2, 4)
            a = random_rank2_matrix(rng, d, n)
            if trop_rank(a) > 2:
                continue
            cert = lift_rank2_real(a, seed=k)
            assert cert.valid
            from troplift.tropical import barvinok_rank2

            if barvinok_rank2(a).ok:
                pos = lift_rank2_positive(a, seed=k)
                assert pos.valid and pos.positivity == "all-positive"
