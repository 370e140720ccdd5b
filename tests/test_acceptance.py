"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import random
import time
from fractions import Fraction

from mpoly import MPoly, mpoly_det, mpoly_disc, sym_matrix_polys
from oracle import brute_barvinok2, brute_sym_barvinok2
from rank_reference import ref_positive_generators_check
from samples import (
    leaf_distances,
    random_barvinok2_matrix,
    random_bicolored_tree,
    random_matrix,
    random_rank2_matrix,
    random_sym_matrix,
    random_sym_rank2_matrix,
)
from troplift.fixtures import cocircuit_fixture, fixture
from troplift.lifts import (
    lift_corank1,
    lift_rank2_real,
    lift_sym_caterpillar,
    lift_sym_corank1,
    lift_sym_rank2_real,
)
from troplift.membership import (
    member_corank1,
    member_rank2,
    member_sym_corank1,
    member_sym_rank2,
)
from troplift.monomials import sym_det_monomials
from troplift.newton import (
    edge_lattice_data,
    edge_positive_ok,
    is_polytope_edge,
    polytope_edges,
    polytope_vertices,
    table2_rows,
)
from troplift.trees import (
    is_caterpillar,
    one_fixed_point,
    tree_from_rank2,
    tree_to_matrix,
)
from troplift.tropical import barvinok_rank2, sym_barvinok_rank2
from troplift.tropmat import TropMatrix, trop_mat_mul

F = Fraction
MODES = ("C", "R", "C+", "R+")

POSITIVE_SYM_RANK2_CERTS = []  # collected for the generator check


def report(num, ok, elapsed, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {tag} ({elapsed:.1f}s) {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_negative_example_reproduction():
    t0 = time.time()
    ex52 = fixture("ex52")
    verdicts = {m: member_sym_corank1(ex52, m).verdict for m in MODES}
    verdict_ok = verdicts == {"C": True, "R": True, "C+": True, "R+": False}

    # symbolic discriminant: unit coefficients c_ij as variables, one
    # series parameter, and the (1,2) entry as the quadratic unknown
    n = 4
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    names = {p: k for k, p in enumerate(pairs)}
    xvar = len(pairs)
    tvar = len(pairs) + 1
    nvars = len(pairs) + 2
    mat = []
    for i in range(n):
        row = []
        for j in range(n):
            p = (min(i, j), max(i, j))
            if p == (0, 1):
                row.append(MPoly.var(nvars, xvar))
            else:
                tpow = [0] * nvars
                tpow[names[p]] = 1
                tpow[tvar] = int(ex52[i, j])
                row.append(MPoly(nvars, {tuple(tpow): F(1)}))
        mat.append(row)
    det = mpoly_det(mat)
    disc = mpoly_disc(det, xvar)
    tdeg, lowest = disc.min_degree_part(tvar)
    exp = [0] * nvars
    exp[names[(0, 2)]] = 1  # c13
    exp[names[(0, 3)]] = 1  # c14
    exp[names[(1, 2)]] = 2  # c23^2
    exp[names[(2, 3)]] = 1  # c34
    exp[names[(3, 3)]] = 1  # c44
    exp[tvar] = 2
    want = MPoly(nvars, {tuple(exp): F(-8)})
    disc_ok = tdeg == 2 and lowest == want

    elapsed = time.time() - t0
    report(
        1,
        verdict_ok and disc_ok and elapsed < 5,
        elapsed,
        f"verdicts {verdicts}, discriminant leading term "
        f"{'-8*c13*c14*c23^2*c34*c44*t^2' if disc_ok else 'WRONG'}",
    )


def test_criterion_2_discriminant_identity():
    t0 = time.time()
    ok = True
    for n in (2, 3, 4):
        mat, index, nvars = sym_matrix_polys(n)
        det = mpoly_det(mat)
        for i in range(n):
            for j in range(i + 1, n):
                disc = mpoly_disc(det, index[(i, j)])
                mi = _principal_minor_det(mat, i, nvars)
                mj = _principal_minor_det(mat, j, nvars)
                ok = ok and disc == 4 * mi * mj
    elapsed = time.time() - t0
    report(2, ok and elapsed < 60, elapsed, "Disc_(ij) det = 4 M_i M_j for n = 2, 3, 4")


def _principal_minor_det(mat, k, nvars):
    sub = [
        [e for jj, e in enumerate(row) if jj != k]
        for ii, row in enumerate(mat)
        if ii != k
    ]
    return mpoly_det(sub) if sub else MPoly.const(nvars, 1)


def test_criterion_3_table_regeneration():
    t0 = time.time()
    rows = table2_rows()
    want = [
        ("2*x12*x13*x23*x44", 1, 2, {("cycle", 3), ("loop", 1)},
         ((0, 1, 1, 0), (0, 0, 1, 0), (0, 0, 0, 0), (0, 0, 0, 1))),
        ("-x11*x22*x34^2", -1, 1, {("loop", 1), ("edge", 2)},
         ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 2), (0, 0, 0, 0))),
        ("x12^2*x34^2", 1, 1, {("edge", 2)},
         ((0, 2, 0, 0), (0, 0, 0, 0), (0, 0, 0, 2), (0, 0, 0, 0))),
        ("x14^2*x23^2", 1, 1, {("edge", 2)},
         ((0, 0, 0, 2), (0, 0, 2, 0), (0, 0, 0, 0), (0, 0, 0, 0))),
        ("-2*x12*x14*x23*x34", -1, 2, {("cycle", 4)},
         ((0, 1, 0, 1), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 0, 0))),
    ]
    ok = True
    for row, (mono, sign, coeff, comps, exp) in zip(rows, want):
        ok = ok and row.monomial_str() == mono and row.sign == sign
        ok = ok and row.coefficient == coeff and row.exponent == exp
        ok = ok and {(k, len(v)) for k, v in row.graph_components()} == comps
    tri_loop, loops_edge, tp1, tp2, cyc4 = rows
    # claim 1: the 4-cycle is the midpoint of the transposition pair edge
    e = edge_lattice_data(tp1, tp2)
    ok = ok and cyc4 not in polytope_vertices(4)
    ok = ok and is_polytope_edge(tp1, tp2) and e.lattice_length == 2 and e.midpoint == cyc4
    # claim 2: all table vertex pairs are edges except the 7-edge union
    ok = ok and not is_polytope_edge(tri_loop, loops_edge)
    for u, v in (
        (tri_loop, tp1), (tri_loop, tp2), (loops_edge, tp1), (loops_edge, tp2)
    ):
        ok = ok and is_polytope_edge(u, v)
    # claim 3: positivity of the surrounding edges
    ok = ok and edge_positive_ok(e)
    for tp in (tp1, tp2):
        ok = ok and edge_positive_ok(edge_lattice_data(loops_edge, tp))
        ok = ok and not edge_positive_ok(edge_lattice_data(tri_loop, tp))
    elapsed = time.time() - t0
    report(3, ok, elapsed, "five rows and three edge claims match")


def test_criterion_4_newton_polytope_vs_hull(hull4):
    t0 = time.time()
    classes = sym_det_monomials(4)
    ok = len(classes) == 17
    verts = polytope_vertices(4)
    ok = ok and len(verts) == 14
    hull_v, hull_e = hull4
    ok = ok and sorted(classes.index(c) for c in verts) == sorted(hull_v)
    edges = polytope_edges(4)
    fast_e = sorted(
        tuple(sorted((classes.index(e.u), classes.index(e.v)))) for e in edges
    )
    ok = ok and fast_e == sorted(tuple(sorted(p)) for p in hull_e)
    for e in edges:
        if e.lattice_length == 2:
            ok = ok and e.midpoint is not None and e.midpoint in classes
    elapsed = time.time() - t0
    report(
        4,
        ok and elapsed < 30,
        elapsed,
        f"17 classes, 14 vertices, {len(edges)} edges agree with the exact hull",
    )


def test_criterion_5_field_mode_property_suite():
    t0 = time.time()
    rng = random.Random(20260811)
    verifier_failures = 0
    lift_failures = []

    def monotone(v):
        ok = True
        if v["R+"]:
            ok = ok and v["C+"] and v["R"]
        if v["C+"]:
            ok = ok and v["C"]
        if v["R"]:
            ok = ok and v["C"]
        return ok

    mono_ok = True
    equal_ok = True

    # rank 2: C = R, every rank <= 2 instance gets a verified real lift
    for k in range(500):
        d, n = rng.randint(2, 5), rng.randint(2, 5)
        style = k % 10
        if style < 4:
            a = random_rank2_matrix(rng, d, n)
        elif style < 7:
            a = random_barvinok2_matrix(rng, d, n)
        else:
            a = random_matrix(rng, d, n)
        v = {m: member_rank2(a, m).verdict for m in MODES}
        mono_ok = mono_ok and monotone(v)
        equal_ok = equal_ok and v["C"] == v["R"]
        if v["C"]:
            try:
                cert = lift_rank2_real(a, seed=k)
                if not cert.valid:
                    verifier_failures += 1
            except Exception as exc:  # noqa: BLE001 - reported, not silent
                lift_failures.append(("rank2", k, type(exc).__name__))

    # symmetric rank 2: C = R, every instance gets a verified real lift
    for k in range(500):
        n = rng.randint(2, 5)
        if k % 10 < 6:
            a = random_sym_rank2_matrix(rng, n)
        else:
            a = random_sym_matrix(rng, n)
        a = TropMatrix.make(a.entries, symmetric=True)
        v = {m: member_sym_rank2(a, m).verdict for m in MODES}
        mono_ok = mono_ok and monotone(v)
        equal_ok = equal_ok and v["C"] == v["R"]
        if v["C"]:
            try:
                cert = lift_sym_rank2_real(a, seed=k)
                if not cert.valid:
                    verifier_failures += 1
                elif cert.positivity == "all-positive":
                    POSITIVE_SYM_RANK2_CERTS.append(cert)
            except Exception as exc:  # noqa: BLE001
                lift_failures.append(("sym_rank2", k, type(exc).__name__))

    # singular: C = R and C+ = R+; opposite-sign ties get verified R+ lifts
    for k in range(500):
        n = rng.randint(2, 5)
        a = random_matrix(rng, n, n)
        v = {m: member_corank1(a, m).verdict for m in MODES}
        mono_ok = mono_ok and monotone(v)
        equal_ok = equal_ok and v["C"] == v["R"] and v["C+"] == v["R+"]
        if v["C+"]:
            try:
                cert = lift_corank1(a, "R+", seed=k)
                if not cert.valid:
                    verifier_failures += 1
            except Exception as exc:  # noqa: BLE001
                lift_failures.append(("corank1", k, type(exc).__name__))

    # symmetric singular: C = R; non-boundary positive ties get verified
    # positive lifts (on boundary strata membership is a closure statement
    # and an exact lift need not exist)
    ex52 = fixture("ex52")
    sym_gap = (
        member_sym_corank1(ex52, "C+").verdict
        and not member_sym_corank1(ex52, "R+").verdict
    )
    closure_only = 0
    for k in range(500):
        n = rng.randint(2, 5)
        a = random_sym_matrix(rng, n)
        verdicts = {m: member_sym_corank1(a, m) for m in MODES}
        v = {m: verdicts[m].verdict for m in MODES}
        mono_ok = mono_ok and monotone(v)
        equal_ok = equal_ok and v["C"] == v["R"]
        if v["R+"]:
            if verdicts["R+"].reason.get("boundary"):
                closure_only += 1
                continue
            try:
                cert = lift_sym_corank1(a, "R+", seed=k)
                if not cert.valid:
                    verifier_failures += 1
            except Exception as exc:  # noqa: BLE001
                lift_failures.append(("sym_corank1", k, type(exc).__name__))

    elapsed = time.time() - t0
    ok = (
        mono_ok
        and equal_ok
        and sym_gap
        and verifier_failures == 0
        and not lift_failures
    )
    report(
        5,
        ok,
        elapsed,
        f"monotone {mono_ok}, table equalities {equal_ok}, positive-part gap {sym_gap}, "
        f"verifier failures {verifier_failures}, lift failures {lift_failures[:3]}, "
        f"closure-only positive ties skipped {closure_only}",
    )


def test_criterion_6_explicit_lift_formulas():
    t0 = time.time()
    rng = random.Random(6)
    ok = True
    for seed in range(20):
        n = rng.randint(3, 6)
        # fully fixed spine: d_2 >= ... >= d_n >= 0
        d = sorted((F(rng.randint(0, 8), rng.randint(1, 2)) for _ in range(n - 1)), reverse=True)
        ent = [[F(0)] * n for _ in range(n)]
        for i in range(1, n):
            for j in range(1, n):
                ent[i][j] = d[max(i, j) - 1]
        spine = TropMatrix.make(ent, symmetric=True)
        cert = lift_sym_caterpillar(spine, seed=seed)
        ok = ok and cert.valid and cert.method == "spine_recursion"
        exact = all(e.trunc is None for row in cert.lift for e in row)
        ok = ok and exact
        if cert.valid:
            POSITIVE_SYM_RANK2_CERTS.append(cert)
        # mirrored pair: rows [0, d_i] or [d_i, 0] around one fixed point
        rows = []
        for i in range(n):
            di = F(rng.randint(0, 8), rng.randint(1, 2))
            rows.append([F(0), di] if rng.random() < 0.5 or i == 0 else [di, F(0)])
        m1 = TropMatrix.make(rows)
        mirror = trop_mat_mul(m1, m1.transpose())
        mirror = TropMatrix.make(mirror.entries, symmetric=True)
        cert2 = lift_sym_caterpillar(mirror, seed=seed)
        ok = ok and cert2.valid
        ok = ok and all(e.trunc is None for row in cert2.lift for e in row)
        if cert2.valid:
            POSITIVE_SYM_RANK2_CERTS.append(cert2)
    elapsed = time.time() - t0
    report(6, ok, elapsed, "spine recursion and mirror product verified on 20 seeds")


def test_criterion_7_tree_correspondence():
    t0 = time.time()
    rng = random.Random(20260807)
    ok = True
    for k in range(300):
        dn = rng.randint(2, 6), rng.randint(2, 6)
        t = random_bicolored_tree(rng, *dn)
        a = tree_to_matrix(t, *dn)
        t2 = tree_from_rank2(a)
        ok = ok and leaf_distances(t) == leaf_distances(t2)
    brute_checked = 0
    for k in range(40):
        d, n = rng.randint(2, 4), rng.randint(2, 4)
        a = random_rank2_matrix(rng, d, n)
        fast = barvinok_rank2(a).ok
        ok = ok and fast == is_caterpillar(tree_from_rank2(a))
        ok = ok and fast == brute_barvinok2(a)
        brute_checked += 1
    for k in range(25):
        n = rng.randint(2, 4)
        a = random_sym_rank2_matrix(rng, n)
        a = TropMatrix.make(a.entries, symmetric=True)
        fast = sym_barvinok_rank2(a).ok
        t2 = tree_from_rank2(a)
        ok = ok and fast == (is_caterpillar(t2) and one_fixed_point(t2))
        ok = ok and fast == brute_sym_barvinok2(a)
        brute_checked += 1
    elapsed = time.time() - t0
    report(
        7, ok, elapsed, f"300 exact round trips, {brute_checked} brute-force agreements"
    )


def test_criterion_8_cocircuit_fixture(cocircuit_rank):
    t0 = time.time()
    c = cocircuit_fixture()
    ok = c.rows == 9 and c.cols == 12
    rank, rank_seconds = cocircuit_rank
    ok = ok and rank == 3
    elapsed = time.time() - t0 + rank_seconds
    report(8, ok and elapsed < 10, elapsed, f"9x12 matrix, tropical rank {rank}")


def test_criterion_9_positive_generator_property():
    t0 = time.time()
    certs = POSITIVE_SYM_RANK2_CERTS
    rng = random.Random(9)
    while len(certs) < 30:
        n = rng.randint(3, 5)
        a = random_sym_rank2_matrix(rng, n)
        a = TropMatrix.make(a.entries, symmetric=True)
        try:
            cert = lift_sym_caterpillar(a, seed=len(certs))
        except Exception:  # noqa: BLE001 - only caterpillars qualify here
            continue
        if cert.valid:
            certs.append(cert)
    ok = True
    checked = 0
    for cert in certs:
        if cert.target.rows < 3:
            continue
        checked += 1
        ok = ok and ref_positive_generators_check(cert.target)
    elapsed = time.time() - t0
    report(
        9,
        ok and checked >= 20,
        elapsed,
        f"{checked} verified positive certificates, all 3x3 minors on opposite signs",
    )
