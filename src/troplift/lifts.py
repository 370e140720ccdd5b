"""Constructive Puiseux lift certificates.

Every lift_* operation returns a LiftCertificate whose transcript is
produced by verify.verify_lift, which recomputes everything from scratch
and is given the lift's own bound.  The linear and quadratic entry solves
set the unknown's cells of the drawn matrix to the exact zero and read
each coefficient as a minor of that one matrix, off its grid: two
series (verify.series_det) for the linear solve, three minors as grid
ints (verify.minor_ints) for the symmetric one.  They divide no series:
scaling the solved entry's row (and column) by a unit of valuation 0 and
positive leading coefficient clears its denominator and keeps every
valuation and sign.  Only the symmetric solve's square root truncates.
That solve stays on ints from the minors to the written root
(puiseux.quad_ints: the discriminant, its root and both numerators);
only the unit and the numerator it writes become series.

Every certificate is built and verified by _issue.  The seeded
constructions run under one driver, _first_valid: attempt k draws from
the stream (seed, kind, token, k) and yields candidate certificates, the
first valid one is returned, and after MAX_RETRIES attempts without one
the construction's own exhaustion error is raised.  Streams depend only
on the seed and the input, so certificates are reproducible byte for
byte.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from . import rng as rngmod
from .config import DEFAULT_SEED, MAX_ENUMERATION_BOUND, default_truncation
from .errors import (
    DegenerateGeneric,
    GenericRetryExhausted,
    InversionOfZero,
    MinorSignsOpposed,
    NotBarvinok2,
    NotCaterpillar,
    NotRank2,
    NotSingular,
    SameSigns,
)
from .membership import _edge_table, _positive_part, adjacent_pair
from .puiseux import PuiseuxSeries, lattice_series, pair_sign, quad_ints
from .tropmat import TropMatrix
from .tropical import (
    _witness_grid,
    barvinok_rank2,
    sym_barvinok_rank2,
    sym_tree_barvinok,
    sym_trop_det,
    sym_trop_rank,
    trop_det,
)
from .verify import LiftCertificate, minor_ints, series_det, series_grid, verify_lift

MAX_RETRIES = 32

ONE = Fraction(1)
ZERO = PuiseuxSeries.zero()


def _issue(target, lift, claimed, positivity, method, seed, bound) -> LiftCertificate:
    """The certificate for `lift`, verified at the lift's bound."""
    cert = LiftCertificate(target, lift, claimed, positivity, seed=seed, method=method)
    verify_lift(cert, bound)
    return cert


def _first_valid(attempt, seed, kind, token, exhausted) -> LiftCertificate:
    """The first valid certificate that attempt(rng) yields, for the
    streams of attempts 0 .. MAX_RETRIES - 1; raises `exhausted` when
    none is."""
    for k in range(MAX_RETRIES):
        for cert in attempt(rngmod.stream(seed, kind, token, str(k))):
            if cert.valid:
                return cert
    raise exhausted


def _monomial_lift(rng, value) -> PuiseuxSeries:
    return PuiseuxSeries.monomial(rngmod.positive_coeff(rng), value)


def _factor_product(b: TropMatrix, c: TropMatrix) -> tuple:
    """Entries sum_k t**(B_ik + C_kj), each with coefficient 1."""
    return tuple(
        tuple(
            PuiseuxSeries.make([(b[i, k] + c[k, j], ONE) for k in range(b.cols)])
            for j in range(c.cols)
        )
        for i in range(b.rows)
    )


# ---------------------------------------------------------------------------
# rank 2, positive: exponentiate any min-plus factorization


def lift_rank2_positive(
    a: TropMatrix, seed: int = DEFAULT_SEED, bound: int = MAX_ENUMERATION_BOUND
) -> LiftCertificate:
    """Positive rank <= 2 lift from the Barvinok witness A = B ⊙ C.

    Each entry becomes the subtraction-free sum of t**(B_ik + C_kj), so no
    cancellation occurs and valuations match by construction.  `bound`
    caps the rank scan of the witness search, as in member_rank2.
    """
    rec = barvinok_rank2(a, bound)
    if not rec.ok:
        raise NotBarvinok2(f"no two-term factorization: {rec.kind}")
    b, c = rec.witness
    return _issue(
        a, _factor_product(b, c), "rank<=2", "all-positive", "factorization_product", seed, bound
    )


# ---------------------------------------------------------------------------
# symmetric caterpillar lifts: spine recursion and mirror product


def _spine_recursion_lift(dstd: list) -> list:
    """Explicit symmetric positive lift for the fully fixed spine type.

    dstd is 1-based conceptually: dstd[k] is the spine distance of the pair
    labeled k+1 (dstd[0] unused, 0 <= d_n <= ... <= d_2).  Entries follow
    M[i][j] = t^{d_i} M[1][j] + M[2][j] for i >= j > 2.
    """
    n = len(dstd)
    one = PuiseuxSeries.constant(ONE)
    m = [[None] * n for _ in range(n)]
    m[0][0] = one
    if n == 1:
        return m
    m[1][0] = m[0][1] = one
    m[1][1] = PuiseuxSeries.monomial(ONE, dstd[1])
    for j in range(2, n):
        m[0][j] = m[j][0] = one + PuiseuxSeries.monomial(ONE, dstd[j])
        m[1][j] = m[j][1] = PuiseuxSeries.monomial(ONE, dstd[j]) + PuiseuxSeries.monomial(
            ONE, dstd[1]
        )
    for i in range(2, n):
        ti = PuiseuxSeries.monomial(ONE, dstd[i])
        for j in range(2, i + 1):
            m[i][j] = m[j][i] = ti * m[0][j] + m[1][j]
    return m


def lift_sym_caterpillar(
    a: TropMatrix, seed: int = DEFAULT_SEED, bound: int = MAX_ENUMERATION_BOUND
) -> LiftCertificate:
    """Positive symmetric rank <= 2 lift for caterpillar symbic matrices.

    Two shapes occur: a fully fixed spine (pairs sit on the path, lifted by
    the spine recursion) and a single fixed point (mirror symmetry, lifted
    by the factor product of the symmetric factorization B ⊙ B^T).  The
    symmetric Barvinok test picks the shape, and a tropical rank above 2
    in its record raises NotRank2; the spine branch reads the record's
    tree and symbic report.  `bound` caps the tree's rank scan, as in
    member_sym_rank2.
    """
    asym = a.as_symmetric()
    rec = sym_barvinok_rank2(asym, bound)
    if rec.tropical_rank > 2:
        raise NotRank2("tropical rank above 2")
    if not rec.caterpillar:
        raise NotCaterpillar("matrix is not of caterpillar symbic type")
    return _caterpillar_lift(asym, rec, seed, bound)


def _caterpillar_lift(asym: TropMatrix, rec, seed: int, bound: int) -> LiftCertificate:
    """The positive lift of a caterpillar symbic matrix from its symmetric
    Barvinok record: the factor product of the witness when the swap fixes
    one point, else the spine recursion along the tree's fixed spine."""
    n = asym.rows
    if rec.ok:
        lift = _factor_product(rec.witness, rec.witness.transpose())
        method = "mirror_factor_product"
    else:
        assert len(rec.report.fixed_nodes) == rec.tree.nodes, "caterpillar fixed path spans the spine"
        label, dstd, shift = _spine_data(asym, rec.tree)
        mstd = _spine_recursion_lift(dstd)
        lift = tuple(
            tuple(mstd[label[i]][label[j]].shift(shift[i] + shift[j]) for j in range(n))
            for i in range(n)
        )
        method = "spine_recursion"
    return _issue(asym, lift, "symmetric rank<=2", "all-positive", method, seed, bound)


def _spine_data(asym: TropMatrix, tree):
    """(label, dstd, shift) of the spine recursion, with a_ij equal to
    mstd[label_i][label_j] + shift_i + shift_j, where the standard matrix
    mstd is 0 on its first row and column and dstd[max(k, l)] elsewhere.
    Built and checked on the witnesses' int grid; only dstd and shift
    become Fractions."""
    n = asym.rows
    big, ga, spine = _witness_grid(asym, tree)
    pos = [spine[tree.leaf_node("blue", i + 1)] for i in range(n)]
    order = sorted(range(n), key=lambda i: (pos[i], i))
    # labels along the spine run 1, n, n-1, ..., 2
    label = [0] * n
    for k, i in enumerate(order[1:], start=1):
        label[i] = n - k
    dstd = [0] * n
    for i in range(n):
        dstd[label[i]] = pos[i] - pos[order[0]]
    # dstd[0] = 0, so the diagonal of mstd is dstd itself
    shift = [(ga[i][i] - dstd[label[i]]) // 2 for i in range(n)]
    for i in range(n):
        li, si = label[i], shift[i]
        for j in range(n):
            lj = label[j]
            if (dstd[max(li, lj)] if li and lj else 0) + si + shift[j] != ga[i][j]:
                raise AssertionError("spine data does not reproduce the matrix")
    return label, [Fraction(x, big) for x in dstd], [Fraction(x, big) for x in shift]


# ---------------------------------------------------------------------------
# plain rank 2 over the reals: completion from a nonsingular 2x2 frame


def _completion_frame(a: TropMatrix):
    """The lexicographically first 2x2 frame (p1, p2, q1, q2) whose
    tropical completion reproduces a, or None.

    The completion of entry (i, j) is the least of the four valuation
    sums of the rank-2 adjugate formula, minus the frame's tropical
    determinant delta; it splits as min(a_iq1 + b1_j, a_iq2 + b2_j) with
    b1, b2 read off the two frame rows once per frame.  All of it is
    homogeneous of degree one, so it runs on the integer grid of a.
    """
    _, g = a.as_int_grid()
    n = a.cols
    for p1, p2 in combinations(range(a.rows), 2):
        r1, r2 = g[p1], g[p2]
        for q1, q2 in combinations(range(n), 2):
            delta = min(r1[q1] + r2[q2], r1[q2] + r2[q1])
            b1 = [min(r2[q2] + x1, r1[q2] + x2) - delta for x1, x2 in zip(r1, r2)]
            b2 = [min(r2[q1] + x1, r1[q1] + x2) - delta for x1, x2 in zip(r1, r2)]
            if all(
                min(row[q1] + b1[j], row[q2] + b2[j]) == row[j]
                for i, row in enumerate(g)
                if i != p1 and i != p2
                for j in range(n)
                if j != q1 and j != q2
            ):
                return p1, p2, q1, q2
    return None


def _frame_completion(u, v, p1, p2, delta) -> tuple:
    """The rank <= 2 lift u adj(G) v^T t^-delta, G the frame rows u[p1],
    u[p2]: entry (i, j) is u_i0 w_j0 + u_i1 w_j1, with the two column
    combinations w_j0 = g22 v_j0 - g12 v_j1 and w_j1 = g11 v_j1 - g21 v_j0
    formed once per column and shifted by -delta there.  Each entry is one
    PuiseuxSeries.make over the term products of both summands."""
    g11, g12 = u[p1]
    g21, g22 = u[p2]
    w = [
        ((g22 * v0 - g12 * v1).shift(-delta), (g11 * v1 - g21 * v0).shift(-delta))
        for v0, v1 in v
    ]
    return tuple(
        tuple(
            PuiseuxSeries.make(
                (e1 + e2, c1 * c2)
                for x, y in ((u0, w0), (u1, w1))
                for e1, c1 in x.terms
                for e2, c2 in y.terms
            )
            for w0, w1 in w
        )
        for u0, u1 in u
    )


def lift_rank2_real(
    a: TropMatrix, seed: int = DEFAULT_SEED, bound: int = MAX_ENUMERATION_BOUND
) -> LiftCertificate:
    """Real rank <= 2 lift of any tropical rank <= 2 matrix.

    Caterpillar inputs reuse the positive factorization.  Otherwise the
    lift is completed from a 2x2 frame: generic monomials on the frame
    cross, every other entry determined by the rank condition through the
    frame's adjugate, scaled so valuations land on the target.  `bound`
    caps the minor size of the rank scan, as in member_rank2.
    """
    d, n = a.rows, a.cols
    rec = barvinok_rank2(a, bound)
    if rec.ok:
        return lift_rank2_positive(a, seed=seed, bound=bound)
    if rec.tropical_rank > 2:
        raise NotRank2("tropical rank above 2")

    frame = _completion_frame(a)
    if frame is None:
        raise GenericRetryExhausted("no completion frame matches the valuation pattern")
    p1, p2, q1, q2 = frame
    delta = min(a[p1, q1] + a[p2, q2], a[p1, q2] + a[p2, q1])

    def attempt(rng):
        u = [(_monomial_lift(rng, a[i, q1]), _monomial_lift(rng, a[i, q2])) for i in range(d)]
        v = [(_monomial_lift(rng, a[p1, j]), _monomial_lift(rng, a[p2, j])) for j in range(n)]
        g11, g12 = u[p1]
        g21, g22 = u[p2]
        v[q1] = (g11, g21)
        v[q2] = (g12, g22)
        det_g = g11 * g22 - g12 * g21
        if det_g.is_known_zero() or det_g.val() != delta:
            return
        lift = _frame_completion(u, v, p1, p2, delta)
        yield _issue(a, lift, "rank<=2", "none", "frame_completion", seed, bound)

    exhausted = GenericRetryExhausted("frame completion kept cancelling after retries")
    return _first_valid(attempt, seed, "rank2_real", repr(a.entries), exhausted)


# ---------------------------------------------------------------------------
# symmetric rank 2 over the reals: tree-guided generator pair


def _branch_paths(tree, rep):
    """Fixed-path coordinates and branch data for every leaf pair.

    Returns (L, info) where info[i] = (h_i, dep_i, side, group, path_edges):
    h_i is the arc coordinate of the pair's attachment on the fixed path,
    dep_i its distance into a branch, side +1/-1 for the two mirrored
    branches of its group (0 on the path).  path_edges lists (depth, key)
    for the rooted path to the pair's mark inside the canonical branch:
    the blue mark for side +1 pairs, the red mark (the swap image of the
    blue one) for side -1 pairs, so both sides share edge keys and the
    needed cancellation depth is exactly the shared-prefix depth.
    """
    phi = dict(rep.node_map)
    dist = tree.node_distance
    if rep.fixed_nodes:
        # anchor arc coordinates at an end of the fixed path
        anchor = rep.fixed_nodes[0]
        base = max(rep.fixed_nodes, key=lambda u: (dist(anchor, u), u))
        coord = {u: dist(base, u) for u in rep.fixed_nodes}
        on_path = set(rep.fixed_nodes)
        length = max(coord.values())
        mid_edge = None
    else:
        u, v = rep.swapped_edge
        on_path = set()
        coord = {}
        length = Fraction(0)
        mid_edge = (u, v, dist(u, v))

    def path_projection(x):
        """(arc coordinate, distance to the fixed path, gate node) of node x."""
        if x in on_path:
            return coord[x], Fraction(0), x
        if mid_edge is not None:
            u, v, w = mid_edge
            du, dv = dist(x, u), dist(x, v)
            if du <= dv:
                return Fraction(0), du + w / 2, u
            return Fraction(0), dv + w / 2, v
        best = min(on_path, key=lambda p: (dist(x, p), coord[p]))
        return coord[best], dist(x, best), best

    n = tree.red_count
    info = []
    for i in range(n):
        b = tree.leaf_node("blue", i + 1)
        h, dep, gate = path_projection(b)
        if dep == 0:
            info.append((h, Fraction(0), 0, None, ()))
            continue
        if mid_edge is not None:
            u, v, w = mid_edge
            first = u if dist(b, u) <= dist(b, v) else v
            group = frozenset((u, v))
            side = 1 if first == min(group) else -1
            mark = b if side > 0 else phi[b]
            root_child = min(group)
            edges = [(Fraction(0), ("half", root_child))]
            run = w / 2
            prev = root_child
        else:
            walk = tree.path(gate, b)
            first = walk[1]
            group = frozenset((first, phi[first]))
            side = 1 if first == min(group) else -1
            mark = b if side > 0 else phi[b]
            edges = []
            run = Fraction(0)
            prev = gate
        for nxt in tree.path(prev, mark)[1:]:
            edges.append((run, ("edge", min(prev, nxt), max(prev, nxt))))
            run += dist(prev, nxt)
            prev = nxt
        assert run == dep, "rooted path depth must match the projection"
        info.append((h, dep, side, (min(group), max(group)), tuple(edges)))
    return length, info


def _root_path_series(edges, dep, mark_key, coeff_of) -> PuiseuxSeries:
    """Unit series tracking a rooted branch path: one generic coefficient
    per edge at the depth where the edge starts, plus a mark term at the
    full depth.  Differences of two such series have valuation exactly the
    depth of the shared prefix."""
    pairs = [(depth, coeff_of(key)) for depth, key in edges]
    pairs.append((dep, coeff_of(mark_key)))
    return PuiseuxSeries.make(pairs)


def lift_sym_rank2_real(
    a: TropMatrix, seed: int = DEFAULT_SEED, bound: int = MAX_ENUMERATION_BOUND
) -> LiftCertificate:
    """Real symmetric rank <= 2 lift of a symmetric tropical rank <= 2 matrix.

    Rank <= 1 inputs lift as an outer square; caterpillar symbic inputs
    reuse the positive constructions.  The general case writes the lift as
    x y^T + y x^T where the color swap exchanges the generators x and y:
    exponents come from distances to the two ends of the fixed path, and
    branch-internal cancellations are driven by rooted-path unit series.
    `bound` caps the rank scans, as in member_sym_rank2.
    """
    asym = a.as_symmetric()
    n = asym.rows
    rank = sym_trop_rank(asym, bound)
    if rank > 2:
        raise NotRank2("symmetric tropical rank above 2")
    if rank <= 1:  # a_ij = (a_ii + a_jj) / 2 throughout: an outer square
        return _lift_sym_rank1(asym, seed, bound)
    # a symmetric tropical rank 1 matrix is an outer square, and trop_rank
    # <= sym_trop_rank, so the tropical rank is 2 here: no second rank scan
    rec = sym_tree_barvinok(asym, 2)
    assert rec.report.kind == "symbic", "symmetric rank <= 2 matrices have symbic trees"
    if rec.caterpillar:
        return _caterpillar_lift(asym, rec, seed, bound)
    length, info = _branch_paths(rec.tree, rec.report)

    # transversal value of a pair: path offset plus both branch depths;
    # the diagonal is always transversal, which pins the symmetric scaling
    base = [
        [-(dep_i + abs(h_i - h_j) + dep_j) / 2 for (h_j, dep_j, *_) in info]
        for (h_i, dep_i, *_) in info
    ]
    shift = [(asym[i, i] - base[i][i]) / 2 for i in range(n)]
    for i in range(n):
        for j in range(n):
            depth = asym[i, j] - base[i][j] - shift[i] - shift[j]
            assert depth >= 0, "target below the transversal valuation"

    def attempt(rng):
        coeffs: dict = {}

        def coeff_of(key):
            if key not in coeffs:
                coeffs[key] = rngmod.positive_coeff(rng)
            return coeffs[key]

        xs, ys = [], []
        for i in range(n):
            h, dep, side, group, edges = info[i]
            vx = -(h + dep) / 2
            vy = -((length - h) + dep) / 2
            if group is None:
                unit_x = PuiseuxSeries.constant(ONE)
                unit_y = PuiseuxSeries.constant(coeff_of(("mark", i)))
            else:
                s = _root_path_series(edges, dep, ("mark", i), coeff_of)
                unit_x = PuiseuxSeries.constant(ONE)
                unit_y = s if side > 0 else -s
            xs.append(unit_x.shift(vx))
            ys.append(unit_y.shift(vy))
        lift = _symmetric(
            n, lambda i, j: (xs[i] * ys[j] + xs[j] * ys[i]).shift(shift[i] + shift[j] + length / 2)
        )
        yield _issue(asym, lift, "symmetric rank<=2", "none", "mirrored_generators", seed, bound)

    exhausted = GenericRetryExhausted("generator construction kept cancelling after retries")
    return _first_valid(attempt, seed, "sym_rank2_real", repr(asym.entries), exhausted)


def _symmetric(n: int, entry) -> tuple:
    """The n x n matrix of entry(i, j) for an entry symmetric in i and j:
    each is built once, for i <= j, and mirrored."""
    m = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = entry(i, j)
    return tuple(tuple(row) for row in m)


def _lift_sym_rank1(asym: TropMatrix, seed: int, bound: int) -> LiftCertificate:
    n = asym.rows
    rng = rngmod.stream(seed, "sym_rank1", repr(asym.entries))
    x = [PuiseuxSeries.monomial(rngmod.positive_coeff(rng), asym[i, i] / 2) for i in range(n)]
    lift = _symmetric(n, lambda i, j: x[i] * x[j])
    return _issue(asym, lift, "symmetric rank<=2", "all-positive", "outer_square", seed, bound)


# ---------------------------------------------------------------------------
# singular lifts: one linear or quadratic unknown


def _split_det_linear(m0, istar, jstar):
    """A, B with det = A x + B when the (istar, jstar) entry of m0, an
    exact zero there, is x: A is the signed cofactor of x and B = det m0.
    Both are read off one series_grid of m0."""
    n = len(m0)
    grid = series_grid(m0)
    acoef = series_det(
        grid, [r for r in range(n) if r != istar], [c for c in range(n) if c != jstar]
    )
    if (istar + jstar) % 2:
        acoef = -acoef
    return acoef, series_det(grid)


def lift_corank1(
    a: TropMatrix, mode: str = "R+", seed: int = DEFAULT_SEED, bound: int = MAX_ENUMERATION_BOUND
) -> LiftCertificate:
    """Singular lift with one entry solved from a linear determinant equation.

    Requires a tied tropical determinant; in R+ mode the tie must contain a
    Birkhoff-edge pair of opposite signs, and the solved entry comes out
    positive because the two dominating monomials have opposite signs.
    The root x = -B/A of det = A x + B is written with its denominator
    cleared: row i* is scaled by the unit +-A t^-val(A), which has a
    positive leading coefficient, and the entry holds -+B t^-val(A), so
    the lift is exact and its determinant vanishes identically.  `bound`
    caps n for the determinant's scan, as in member_corank1.
    """
    if mode not in ("R", "R+"):
        raise ValueError("mode must be R or R+")
    n = a.rows
    res = trop_det(a, bound)
    if not res.tie:
        raise NotSingular("tropical determinant has a unique minimizing monomial")
    pair = adjacent_pair(res.argmin, opposite_signs=mode == "R+")
    if pair is None and mode == "R+":
        raise SameSigns("no opposite-sign adjacent pair attains the minimum")
    # the tied permutations are the vertices of a face of the Birkhoff
    # polytope, and a face's graph is connected
    assert pair is not None, "two tied permutations span a Birkhoff edge"
    sigma1, sigma2 = pair
    istar = next(i for i in range(n) if sigma1[i] != sigma2[i])
    jstar = sigma1[istar]
    # sigma1 leads A, less its (istar, jstar) entry, and sigma2 leads B
    aval = res.min_value - a[istar, jstar]
    positivity = "all-positive" if mode == "R+" else "none"

    def attempt(rng):
        rows = [[_monomial_lift(rng, a[i, j]) for j in range(n)] for i in range(n)]
        rows[istar][jstar] = ZERO  # x; the drawn value is never read
        acoef, bcoef = _split_det_linear(rows, istar, jstar)
        if acoef.val() != aval or bcoef.val() != res.min_value:
            return  # an exact zero has valuation None
        if acoef.lead_sign() < 0:
            acoef, bcoef = -acoef, -bcoef
        # row istar times the unit A t^-aval keeps every valuation and sign;
        # -B t^-aval, of valuation a[istar, jstar], stands for the unit times
        # x and has the sign of x = -B/A
        unit = acoef.shift(-aval)
        solved = (-bcoef).shift(-aval)
        if mode == "R+" and solved.lead_sign() <= 0:
            return
        rows[istar] = [solved if j == jstar else x * unit for j, x in enumerate(rows[istar])]
        lift = tuple(map(tuple, rows))
        yield _issue(a, lift, "singular", positivity, "linear_entry_solve", seed, bound)

    exhausted = DegenerateGeneric("generic draws kept failing the linear solve")
    return _first_valid(attempt, seed, "corank1", repr(a.entries) + mode, exhausted)


def _split_det_quadratic(m0, i, j):
    """The grid of m0 and A, B, C with det = A x^2 + B x + C when entries
    (i,j) and (j,i), i != j, of the symmetric m0, exact zeros there, are x.

    C = det m0.  The permutations through both x pair them as a
    transposition, so A is minus the minor without rows and columns i and
    j.  B sums the two signed cofactors of x, each with the other x at 0;
    on a symmetric m0 they are transposes of each other, so B is twice
    one.  Each coefficient is a determinant over exactly its own
    permutations, so each keeps its own order when entries are truncated.
    All three are read off one series_grid of m0 as verify.minor_ints
    gives them, (ints, known, den), the form quad_ints takes.
    """
    n = len(m0)
    grid = series_grid(m0)
    rest = [r for r in range(n) if r not in (i, j)]
    ints, known, den = minor_ints(grid, rest, rest)
    acoef = {key: -c for key, c in ints.items()}, known, den
    ints, known, den = minor_ints(
        grid, [r for r in range(n) if r != i], [c for c in range(n) if c != j]
    )
    factor = -2 if (i + j) % 2 else 2
    bcoef = {key: factor * c for key, c in ints.items()}, known, den
    return grid, acoef, bcoef, minor_ints(grid)


def lift_sym_corank1(
    a: TropMatrix, mode: str = "R+", seed: int = DEFAULT_SEED, bound: int = MAX_ENUMERATION_BOUND
) -> LiftCertificate:
    """Symmetric singular lift; one symmetric entry solves a quadratic.

    The tied minimum must sit on a Newton-polytope edge.  Lattice length 1
    gives a quadratic whose discriminant is dominated by the square term;
    lattice length 2 uses the discriminant factorization into the two
    row/column-deleted minors, whose leading signs must agree in R+ mode
    (raising MinorSignsOpposed otherwise) and are made to agree in R mode
    by flipping the sign of one lifted entry of the shared row.

    Both modes read the memoised edge table of the membership verdicts,
    which lists every edge of a tie, so the symmetric determinant runs
    once.  Only R+ mode refuses a negative verdict, and only R+ mode
    reports a boundary tie.  `bound` caps n for the determinants, as in
    member_sym_corank1.
    """
    if mode not in ("R", "R+"):
        raise ValueError("mode must be R or R+")
    asym = a.as_symmetric()
    if not sym_trop_det(asym, bound).tie:
        raise NotSingular("symmetric tropical determinant has a unique minimizer")
    table = _edge_table(asym, bound)
    boundary = False
    if mode == "R+":
        ok, boundary, failure = _positive_part(table, "R+")
        if failure == "minor_signs":
            raise MinorSignsOpposed(
                "both deleted minors are sign-forced with opposite signs"
            )
        if not ok:
            raise SameSigns("no edge of the minimizing set admits a positive solution")
    usable = table.edges if mode == "R" else table.qualifying(mode)
    assert usable, "true verdict must come with a usable edge"
    # prefer edges that span the tie exactly: there the constructive
    # statements apply; on a pure boundary tie the verdict is a closure
    # statement and the solve below may be genuinely infeasible
    edge = min(usable, key=lambda e: (e.lattice_length != table.size - 1, e.lattice_length, e.u.exponent))
    if boundary:
        exhausted = DegenerateGeneric(
            "the tie strictly contains the qualifying edge; membership is a "
            "closure statement and an exact lift with these valuations may "
            "not exist"
        )
    else:
        exhausted = DegenerateGeneric("quadratic solve kept failing after retries")
    if edge.lattice_length == 1:
        i, j = _lattice1_entry(edge)
    else:
        i, j = table.reports[edge.midpoint_cycle][0][0]
    flips = _flip_candidates(asym, edge, i, j, mode)
    return _solve_symmetric_quadratic(asym, i, j, mode, seed, flips, bound, exhausted)


def _flip_candidates(asym: TropMatrix, edge, i, j, mode) -> list:
    flips: list = []
    if mode == "R":
        # entries used an odd number of times by exactly one endpoint flip
        # exactly one of the two dominating coefficients
        n = asym.rows
        for r in range(n):
            for c in range(r, n):
                if (r, c) == (min(i, j), max(i, j)):
                    continue
                if (edge.u.exponent[r][c] - edge.v.exponent[r][c]) % 2 == 1:
                    flips.append((r, c))
        for l in range(n):
            if l not in (i, j):
                for r in (i, j):
                    cand = (min(r, l), max(r, l))
                    if cand not in flips:
                        flips.append(cand)
    return flips


def _lattice1_entry(edge) -> tuple[int, int]:
    """Off-diagonal position whose exponent differs between the endpoint
    monomials.  A position used exactly once by one endpoint is preferred:
    it puts that endpoint in the linear coefficient, whose square then
    dominates the discriminant regardless of signs."""
    n = edge.u.n
    fallback = None
    for i in range(n):
        for j in range(i + 1, n):
            eu, ev = edge.u.exponent[i][j], edge.v.exponent[i][j]
            if eu != ev:
                if 1 in (eu, ev):
                    return i, j
                if fallback is None:
                    fallback = (i, j)
    if fallback is not None:
        return fallback
    raise AssertionError("distinct monomial classes must differ off the diagonal")


def _solve_symmetric_quadratic(
    asym: TropMatrix, i, j, mode, seed, flip_candidates, bound, exhausted
) -> LiftCertificate:
    """Each attempt draws the symmetric monomials once, then tries no flip
    and each flip in turn, and for each the numerators n of quad_ints on
    M0's grid, the square root truncated at default_truncation.  A root
    x = n / 2A is kept only when its leading term has the target valuation
    and sign, read off n's ints.  Row and column i are scaled by the unit
    u = eps 2A t^-val(2A), eps the sign of 2A's leading coefficient, and
    (i, j), (j, i) hold u x = eps n t^-val(2A): the determinant becomes
    u^2 det, and every valuation and sign stays.  Only the unit and the
    written numerator become series; n2 is made only when n1 fails."""
    n = asym.rows
    tn, td = asym[i, j].as_integer_ratio()
    trunc = default_truncation(asym)
    flips = [None] + list(flip_candidates)
    positivity = "all-positive" if mode == "R+" else "none"

    def attempt(rng):
        rows = [[None] * n for _ in range(n)]
        for r in range(n):
            for c in range(r, n):
                rows[r][c] = rows[c][r] = _monomial_lift(rng, asym[r, c])
        rows[i][j] = rows[j][i] = ZERO  # x; the drawn value is never read
        for flip in flips:
            cur = [row[:] for row in rows]
            if flip is not None:
                r, c = flip
                cur[r][c] = cur[c][r] = -cur[r][c]
            grid, acoef, bcoef, ccoef = _split_det_quadratic(cur, i, j)
            try:
                quad = quad_ints(acoef, bcoef, ccoef, grid.exp_den, grid.radicand, trunc)
            except InversionOfZero:
                continue  # degenerate draw: A = 0
            if quad.sign < 0:
                continue
            shift, a, b, _, rad = quad.two_a[0]
            eps = pair_sign(a, b, rad)
            unit = None
            for branch in (1, -1):
                num = quad.numerator(branch)
                if not num:
                    continue
                lead, a, b, _, rad = num[0]
                if (lead - shift) * td != tn * quad.exp_den:
                    continue
                if mode == "R+" and eps * pair_sign(a, b, rad) <= 0:
                    continue
                if unit is None:
                    unit = lattice_series(quad.two_a, quad.exp_den, quad.two_a_trunc, shift, eps)
                root = lattice_series(num, quad.exp_den, quad.trunc, shift, eps)
                scaled = [x * unit for x in cur[i]]
                scaled[i] = scaled[i] * unit
                scaled[j] = root
                lift = _symmetric(
                    n, lambda r, c: scaled[c] if r == i else scaled[r] if c == i else cur[r][c]
                )
                yield _issue(
                    asym, lift, "symmetric singular", positivity, "quadratic_entry_solve", seed, bound
                )

    token = repr(asym.entries) + mode + f"{i},{j}"
    return _first_valid(attempt, seed, "sym_corank1", token, exhausted)
