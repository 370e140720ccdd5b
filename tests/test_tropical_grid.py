"""Tropical minima on the integer grid against the Fraction loops they replace.

The references below are the code that troplift used before the
symmetric argmin became the plain argmin grouped into classes: the
symmetric classes found by keeping the least representative of each
exponent over all n! permutations, a class value summed as Fractions
entry by entry over every one of those classes, argmin classes built
with `from_permutation`, principal submatrices rebuilt as
TropMatrix objects, every minor of a rank scan tested by its permutations
(both minors of a transposed pair included), and `sym_corank1_edges` and
the 3 x 3 minors taking minor signs from the `trop_det` of a submatrix.
The plain determinant loop and its sign reader live in
tests/rank_reference.py.  Values, argmin tuples (order included), ranks,
minor signs and edge reports must agree exactly.
"""

import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import rank_reference
import samples
from rank_reference import ref_signs, ref_trop_det
from samples import submatrix
from troplift import tropical
from troplift.errors import SizeLimit
from troplift.membership import _argmin_signs, _minor_signs, sym_corank1_edges
from troplift.monomials import SignedMonomialClass, _classes, plain_class, sym_class
from troplift.newton import (
    _even_big_cycles,
    _union_graph,
    edge_lattice_data,
    edge_positive_ok,
    is_polytope_edge,
)
from troplift.tropical import (
    _grid_nonsingular,
    _grid_sym_nonsingular,
    sym_trop_det,
    sym_trop_rank,
    trop_det,
    trop_rank,
)
from troplift.tropmat import TropMatrix

F = Fraction


# --- references -----------------------------------------------------------


def ref_value(cls, a):
    total = F(0)
    for i in range(cls.n):
        for j in range(cls.n):
            if cls.exponent[i][j]:
                total += cls.exponent[i][j] * a[i, j]
    return total


@lru_cache(maxsize=None)
def ref_sym_classes(n):
    """Every symmetric class, each with its least representative over the
    n! permutations, in exponent order."""
    by_exp = {}
    for sigma in permutations(range(n)):
        cls = SignedMonomialClass.from_permutation(sigma, True)
        prev = by_exp.get(cls.exponent)
        if prev is None or cls.representative < prev.representative:
            by_exp[cls.exponent] = cls
    return tuple(sorted(by_exp.values(), key=lambda c: c.exponent))


def ref_sym_trop_det(a):
    a = TropMatrix.make(a.entries, symmetric=True)
    best, arg = None, []
    for cls in ref_sym_classes(a.rows):
        v = ref_value(cls, a)
        if best is None or v < best:
            best, arg = v, [cls]
        elif v == best:
            arg.append(cls)
    return best, tuple(arg)


def ref_nonsingular(sub, symmetric):
    if symmetric:
        return len(ref_sym_trop_det(sub)[1]) == 1
    return len(ref_trop_det(sub)[1]) == 1


def ref_rank(a, symmetric=False):
    rank = 0
    for k in range(1, min(a.rows, a.cols) + 1):
        if not any(
            ref_nonsingular(submatrix(a, rows, cols), symmetric and rows == cols)
            for rows in combinations(range(a.rows), k)
            for cols in combinations(range(a.cols), k)
        ):
            return rank
        rank = k
    return rank


def ref_is_polytope_edge(u, v):
    if u == v:
        return False
    loops, edges = _union_graph(u, v)
    return len(loops) + len(edges) <= u.n + 1 and _even_big_cycles(u.n, edges) <= 1


def ref_sym_corank1_edges(a):
    a = TropMatrix.make(a.entries, symmetric=True)
    _, tie = ref_sym_trop_det(a)
    argmin = set(tie)
    vertices = [
        cls for cls in tie
        if all(k != "cycle" or len(v) % 2 == 1 for k, v in cls.graph_components())
    ]

    def minor_signs(k):
        idx = [r for r in range(a.rows) if r != k]
        return {cls.sign for cls in ref_trop_det(submatrix(a, idx, idx))[1]}

    out = []
    for u, v in combinations(vertices, 2):
        if not ref_is_polytope_edge(u, v):
            continue
        edge = edge_lattice_data(u, v)
        if edge.lattice_length == 2 and edge.midpoint not in argmin:
            continue
        span = {u, v} if edge.lattice_length == 1 else {u, v, edge.midpoint}
        entry = {
            "edge": edge,
            "exact_span": argmin == span,
            "qualifies_c_plus": edge_positive_ok(edge),
            "qualifies_r": True,
            "minor_pair": None,
            "minor_reports": None,
        }
        if edge.lattice_length == 2:
            cycle = next(
                vs
                for kind, vs in edge.midpoint.graph_components()
                if kind == "cycle" and len(vs) % 2 == 0
            )
            reports = []
            for k in range(len(cycle)):
                i, j = cycle[k], cycle[(k + 1) % len(cycle)]
                si, sj = minor_signs(i), minor_signs(j)
                reports.append(
                    {"pair": (i, j), "signs": (sorted(si), sorted(sj)), "same_sign_choice": bool(si & sj)}
                )
            entry["minor_pair"] = reports[0]["pair"]
            entry["minor_reports"] = reports
            entry["qualifies_r_plus"] = entry["qualifies_c_plus"] and reports[0]["same_sign_choice"]
        else:
            entry["qualifies_r_plus"] = entry["qualifies_c_plus"]
        out.append(entry)
    return out


# --- inputs ---------------------------------------------------------------

DENOMINATORS = st.sampled_from([1, 1, 2, 3, 6])


@st.composite
def entries(draw, lo, hi):
    """An entry in [lo, hi], often with denominator 2, 3 or 6."""
    den = draw(DENOMINATORS)
    return F(draw(st.integers(lo * den, hi * den)), den)


@st.composite
def sym_matrices(draw, max_n=5, min_n=1):
    """Symmetric matrices: plain draws with negative entries, narrow draws
    that tie often, and u_i + u_j plus a few bumps, where every class of
    the symmetric determinant ties before the bumps."""
    n = draw(st.integers(min_n, max_n))
    kind = draw(st.sampled_from(["wide", "narrow", "forced"]))
    ent = [[F(0)] * n for _ in range(n)]
    u = [draw(entries(-3, 3)) for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if kind == "wide":
                x = draw(entries(-4, 4))
            elif kind == "narrow":
                x = draw(entries(-1, 0))
            else:
                x = u[i] + u[j] + (draw(entries(0, 1)) if draw(st.integers(0, 4)) == 0 else 0)
            ent[i][j] = ent[j][i] = x
    return TropMatrix.make(ent, symmetric=True)


@st.composite
def matrices(draw, max_n=5, min_n=1):
    """Rectangular matrices; the forced kind is u_i + w_j with a few bumps."""
    d, n = draw(st.integers(min_n, max_n)), draw(st.integers(min_n, max_n))
    if draw(st.booleans()):
        return TropMatrix.make([[draw(entries(-4, 4)) for _ in range(n)] for _ in range(d)])
    u = [draw(entries(-3, 3)) for _ in range(d)]
    w = [draw(entries(-3, 3)) for _ in range(n)]
    return TropMatrix.make(
        [
            [u[i] + w[j] + (draw(entries(0, 1)) if draw(st.integers(0, 3)) == 0 else 0) for j in range(n)]
            for i in range(d)
        ]
    )


@st.composite
def narrow_matrices(draw, max_d=5, max_n=6):
    """Integer matrices up to 5 x 6 with entries in 0..1 or 0..2, so that
    2 x 2 and 3 x 3 minors tie often; rows and columns may differ in number."""
    d, n = draw(st.integers(1, max_d)), draw(st.integers(1, max_n))
    hi = draw(st.integers(1, 2))
    return TropMatrix.make([[draw(st.integers(0, hi)) for _ in range(n)] for _ in range(d)])


@st.composite
def narrow_sym_matrices(draw, max_n=5):
    """Symmetric integer matrices with entries in 0..1 or 0..2."""
    n, hi = draw(st.integers(1, max_n)), draw(st.integers(1, 2))
    ent = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            ent[i][j] = ent[j][i] = draw(st.integers(0, hi))
    return TropMatrix.make(ent, symmetric=True)


SETTINGS = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# --- the determinants -----------------------------------------------------


@SETTINGS
@given(st.one_of(sym_matrices(), narrow_sym_matrices(), sym_matrices(6, 6)))
def test_sym_trop_det_matches_fraction_class_values(a):
    """Value, argmin classes in class-table order, and tie, up to 6 x 6;
    the narrow draws tie densely."""
    res = sym_trop_det(a)
    best, arg = ref_sym_trop_det(a)
    assert (res.min_value, res.argmin, res.tie) == (best, arg, len(arg) >= 2)
    assert type(res.min_value) is Fraction


@SETTINGS
@given(st.one_of(sym_matrices(), matrices(), matrices(6, 6)))
def test_trop_det_matches_from_permutation_argmin(a):
    """Value, argmin classes in permutations order, and tie, up to 6 x 6."""
    if not a.is_square():
        a = submatrix(a, range(min(a.rows, a.cols)), range(min(a.rows, a.cols)))
    res = trop_det(a)
    best, arg = ref_trop_det(a)
    assert (res.min_value, res.argmin, res.tie) == (best, arg, len(arg) >= 2)


def test_forced_tie_keeps_every_class_and_the_scale():
    u = [F(1, 2), F(-1, 3), F(5, 6), F(-2)]
    a = TropMatrix.make([[ui + uj for uj in u] for ui in u], symmetric=True)
    res = sym_trop_det(a)
    assert res.argmin == ref_sym_classes(4)
    assert res.min_value == 2 * sum(u) == F(-2)


def test_size_limit_comes_before_any_permutation_scan(monkeypatch):
    """Above the class table's cap the symmetric determinant is refused
    with the table's SizeLimit, before an n! scan starts."""

    def no_scan(cells, n):
        raise AssertionError("permutation scan before the size refusal")

    monkeypatch.setattr(tropical, "_perm_argmin", no_scan)
    a = TropMatrix.make([[0] * 9] * 9, symmetric=True)
    with pytest.raises(SizeLimit, match="monomial enumeration capped at n = 8"):
        sym_trop_det(a, 9)


# --- the ranks ------------------------------------------------------------


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(matrices())
def test_trop_rank_matches_fraction_reference(a):
    assert trop_rank(a) == ref_rank(a)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sym_matrices())
def test_sym_trop_rank_matches_fraction_reference(a):
    assert sym_trop_rank(a) == ref_rank(a, symmetric=True)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sym_matrices())
def test_plain_rank_never_exceeds_symmetric_rank(a):
    """A principal submatrix with one optimal permutation sigma has
    sigma = sigma^-1 (both give the same value), so its class is the one
    optimal class: every plainly nonsingular submatrix is symmetrically
    nonsingular, and sym_trop_rank may stand in for a trop_rank <= 2 guard."""
    assert trop_rank(a) <= sym_trop_rank(a)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(narrow_sym_matrices(), sym_matrices()))
def test_trop_rank_of_a_symmetric_matrix_reads_one_minor_per_transposed_pair(a):
    """The scan of a symmetric-flagged matrix skips the minors with cols <
    rows; an unflagged copy is scanned whole.  Both match the reference."""
    plain = TropMatrix.make(a.entries)
    assert a.symmetric and not plain.symmetric
    assert trop_rank(a) == trop_rank(plain) == ref_rank(plain)
    assert sym_trop_rank(a) == sym_trop_rank(plain) == ref_rank(a, symmetric=True)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(narrow_matrices())
def test_trop_rank_of_narrow_rectangular_matrices(a):
    assert trop_rank(a) == ref_rank(a)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(narrow_matrices())
def test_each_minor_test_matches_the_permutation_reference(a):
    """The written-out 1 x 1, 2 x 2 and 3 x 3 tests, and the permutation
    scan at 4 x 4 and 5 x 5, on every minor, with rows and columns from
    different index sets."""
    _, grid = a.as_int_grid()
    for k in range(1, min(a.rows, a.cols, 5) + 1):
        for rows in combinations(range(a.rows), k):
            for cols in combinations(range(a.cols), k):
                want = ref_nonsingular(submatrix(a, rows, cols), False)
                assert _grid_nonsingular(grid, rows, cols) == want, (rows, cols)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(narrow_sym_matrices(), sym_matrices()))
def test_each_principal_test_matches_the_class_reference(a):
    """The written-out 1 x 1, 2 x 2 and 3 x 3 tests, and the grouped
    permutation scan at 4 x 4 and 5 x 5, on every principal minor."""
    _, grid = a.as_int_grid()
    for k in range(1, min(a.rows, 5) + 1):
        for idx in combinations(range(a.rows), k):
            want = ref_nonsingular(submatrix(a, idx, idx), True)
            assert _grid_sym_nonsingular(grid, idx) == want, idx


def _count_minor_tests(monkeypatch, module):
    """Count `module`'s plain and principal minor tests by kind and size."""
    counts = Counter()
    plain, principal = module._grid_nonsingular, module._grid_sym_nonsingular

    def counted_plain(grid, rows, cols):
        counts["plain", len(rows)] += 1
        return plain(grid, rows, cols)

    def counted_principal(grid, idx):
        counts["principal", len(idx)] += 1
        return principal(grid, idx)

    monkeypatch.setattr(module, "_grid_nonsingular", counted_plain)
    monkeypatch.setattr(module, "_grid_sym_nonsingular", counted_principal)
    return counts


def test_rank_scans_count_their_minor_tests(monkeypatch):
    """On a symmetric 5 x 5 of rank 2 the plain scan tests the 10 3 x 3
    minors on rows 0, 1 and 2, finds none nonsingular, and reads rank 2
    off the rank-2 tree, where the full scan tested all 55 with cols >=
    rows.  The symmetric scan starts from that rank: it tests the 10
    principal 3 x 3 minors by their classes and no plain minor, where the
    full scan tested 45 plainly besides.  The symmetric scan's plain rank
    is read from the store."""
    a = samples.random_sym_rank2_matrix(random.Random(3), 5)
    counts = _count_minor_tests(monkeypatch, tropical)
    assert trop_rank(a, 8) == 2
    assert counts == {("plain", 1): 1, ("plain", 2): 4, ("plain", 3): 10}
    counts.clear()
    assert sym_trop_rank(a, 8) == 2
    assert counts == {("principal", 3): 10}
    reference = _count_minor_tests(monkeypatch, rank_reference)
    assert rank_reference.ref_trop_rank(a) == rank_reference.ref_sym_trop_rank(a) == 2
    assert (reference["plain", 3], reference["principal", 3]) == (55 + 45, 10)


def test_rank_scans_of_a_12x12_rank2_product_stay_on_rows_0_to_2(monkeypatch):
    """A symmetric 12 x 12 mirror product M ⊙ M^T of tropical rank 2: the
    plain scan makes C(12, 3) = 220 3 x 3 tests, all on rows 0, 1 and 2,
    and the symmetric one 220 principal tests, where the full scans made
    24 310 plain tests and 24 090 plain plus 220 principal ones."""
    rng = random.Random(12)
    m = [[rng.randint(-4, 4) for _ in range(2)] for _ in range(12)]
    a = TropMatrix.make(
        [[min(x + y for x, y in zip(u, v)) for v in m] for u in m], symmetric=True
    )
    counts = _count_minor_tests(monkeypatch, tropical)
    assert trop_rank(a, 8) == 2
    assert counts["plain", 3] == 220 and counts["principal", 3] == 0
    counts.clear()
    assert sym_trop_rank(a, 8) == 2
    assert counts == {("principal", 3): 220}
    reference = _count_minor_tests(monkeypatch, rank_reference)
    assert rank_reference.ref_trop_rank(a) == 2
    assert reference["plain", 3] == 24310
    reference.clear()
    assert rank_reference.ref_sym_trop_rank(a) == 2
    assert (reference["plain", 3], reference["principal", 3]) == (24090, 220)


# --- minor signs ----------------------------------------------------------


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(narrow_matrices(), matrices()))
def test_minor_signs_match_the_trop_det_of_the_submatrix(a):
    """Every 3 x 3 minor's argmin signs, read off the grid."""
    _, grid = a.as_int_grid()
    for ri in combinations(range(a.rows), 3):
        for cj in combinations(range(a.cols), 3):
            assert _argmin_signs(grid, ri, cj) == ref_signs(submatrix(a, ri, cj))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(narrow_sym_matrices(), sym_matrices()))
def test_deleted_minor_signs_match_the_trop_det_of_the_submatrix(a):
    assume(a.rows > 1)
    for k in range(a.rows):
        idx = [r for r in range(a.rows) if r != k]
        assert _minor_signs(a, k) == ref_signs(submatrix(a, idx, idx))


# --- the classes and the Newton edges ----------------------------------------


def _fields(cls):
    return (
        cls.exponent, cls.sign, cls.coefficient, cls.representative,
        cls.cycle_type, cls.symmetric,
    )


def test_sym_class_matches_the_least_representative_loop():
    """Every class up to 8 x 8 (18 155 at n = 8), field by field, and the
    enumeration in the reference's order."""
    for n in range(1, 9):
        for cls in ref_sym_classes(n):
            assert _fields(sym_class(cls.exponent)) == _fields(cls)
        assert _classes(n, True) == ref_sym_classes(n)
    for n in range(1, 6):
        for sigma in permutations(range(n)):
            assert plain_class(sigma) == SignedMonomialClass.from_permutation(sigma, False)


@pytest.mark.parametrize(
    "exponent",
    [
        ((1, 0, 0), (0, 0, 3), (0, 0, 0)),  # an entry of 3
        ((2, 0, 0), (0, 0, 1), (0, 0, 0)),  # a diagonal 2
        # vertices 0 and 3 each hold one cycle edge: a path, not a cycle
        ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 0, 0)),
        # the walk sends 0 and 1 to 1, which reproduces this exponent
        ((0, 1, 1), (0, 1, 0), (0, 0, 0)),
    ],
    ids=["entry_3", "diagonal_2", "one_cycle_edge", "no_permutation"],
)
def test_sym_class_refuses_an_exponent_that_is_no_class(exponent):
    with pytest.raises(ValueError, match="not a symmetric determinant exponent"):
        sym_class(exponent)


def test_class_hash_is_the_field_hash():
    """The stored hash is the value the generated dataclass hash gave, so
    sets of classes keep their iteration order."""
    for n in range(1, 6):
        plain = tuple(plain_class(sigma) for sigma in permutations(range(n)))
        for cls in _classes(n, True) + plain:
            fields = _fields(cls)
            assert hash(cls) == hash(fields)
            twin = SignedMonomialClass(*fields)
            assert twin == cls and hash(twin) == hash(cls) and repr(twin) == repr(cls)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sym_matrices())
def test_sym_corank1_edges_match_per_vertex_minor_signs(a):
    assert sym_corank1_edges(a) == ref_sym_corank1_edges(a)


def _wide_tie_5x5(seed):
    """Seeded symmetric 5x5 matrices whose tie spans dozens of classes:
    symmetric tropical rank 2, or u_i + u_j with one entry pair bumped."""
    rng = random.Random(seed)
    if seed % 2:
        return samples.random_sym_rank2_matrix(rng, 5)
    u = [F(rng.randint(-6, 6), rng.choice([1, 2, 3, 6])) for _ in range(5)]
    ent = [[ui + uj for uj in u] for ui in u]
    i, j = rng.sample(range(5), 2)
    ent[i][j] = ent[j][i] = ent[i][j] + F(rng.randint(0, 2), 2)
    return TropMatrix.make(ent, symmetric=True)


@pytest.mark.parametrize("seed", range(10))
def test_wide_5x5_ties_match_references(seed):
    a = _wide_tie_5x5(seed)
    best, arg = ref_sym_trop_det(a)
    assert len(arg) >= 11
    res = sym_trop_det(a)
    assert (res.min_value, res.argmin) == (best, arg)
    assert sym_trop_rank(a) == ref_rank(a, symmetric=True)
    assert sym_corank1_edges(a) == ref_sym_corank1_edges(a)


@pytest.mark.parametrize(
    "a, tied, vertices, records",
    [
        # every one of the 73 classes ties
        (TropMatrix.make([[0] * 5] * 5, symmetric=True), 73, 58, 560),
        (samples.random_sym_rank2_matrix(random.Random(36), 5), 56, 44, 357),
    ],
    ids=["constant", "sym_rank2_seed36"],
)
def test_the_largest_5x5_ties_match_the_reference(a, tied, vertices, records):
    """Ties far wider than the drawn matrices reach: every edge record,
    in order, against the pairwise reference."""
    tie = sym_trop_det(a).argmin
    assert (len(tie), sum(cls.is_vertex for cls in tie)) == (tied, vertices)
    got = sym_corank1_edges(a)
    assert len(got) == records
    assert got == ref_sym_corank1_edges(a)


def test_edge_criterion_memo_agrees_with_direct_test():
    classes = _classes(5, True)
    for u, v in combinations(classes[::3], 2):
        assert is_polytope_edge(u, v) == ref_is_polytope_edge(u, v)
        assert is_polytope_edge(v, u) == ref_is_polytope_edge(u, v)
