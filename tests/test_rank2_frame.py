"""The rank-2 frame completion against the Fraction code it replaced.

lift_rank2_real searches its 2x2 frame on the matrix's integer grid and
builds each entry from two column combinations.  The references below are
the code it ran before: the frame test on Fractions, one frame at a time
in lexicographic order, and the twelve-product completion
u_i0 g22 v_j0 - u_i0 g12 v_j1 - u_i1 g21 v_j0 + u_i1 g11 v_j1, shifted by
-delta per entry.  Frames, lifts and certificates must agree term for
term.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import samples
from troplift import lifts
from troplift.errors import GenericRetryExhausted
from troplift.puiseux import PuiseuxSeries
from troplift.tropmat import TropMatrix, trop_mat_mul
from troplift.trees import tree_to_matrix

F = Fraction


# --- references -----------------------------------------------------------


def ref_plain_frame_ok(a, p1, p2, q1, q2):
    delta = min(a[p1, q1] + a[p2, q2], a[p1, q2] + a[p2, q1])
    for i in range(a.rows):
        if i in (p1, p2):
            continue
        for j in range(a.cols):
            if j in (q1, q2):
                continue
            m = (
                min(
                    a[i, q1] + a[p2, q2] + a[p1, j],
                    a[i, q1] + a[p1, q2] + a[p2, j],
                    a[i, q2] + a[p2, q1] + a[p1, j],
                    a[i, q2] + a[p1, q1] + a[p2, j],
                )
                - delta
            )
            if m != a[i, j]:
                return False
    return True


def ref_frame(a):
    return next(
        (
            (p1, p2, q1, q2)
            for p1, p2 in combinations(range(a.rows), 2)
            for q1, q2 in combinations(range(a.cols), 2)
            if ref_plain_frame_ok(a, p1, p2, q1, q2)
        ),
        None,
    )


def ref_completion(u, v, p1, p2, delta):
    g11, g12 = u[p1]
    g21, g22 = u[p2]
    return tuple(
        tuple(
            (
                u[i][0] * g22 * v[j][0]
                - u[i][0] * g12 * v[j][1]
                - u[i][1] * g21 * v[j][0]
                + u[i][1] * g11 * v[j][1]
            ).shift(-delta)
            for j in range(len(v))
        )
        for i in range(len(u))
    )


# --- strategies -----------------------------------------------------------

RATIONALS = st.builds(F, st.integers(-6, 6), st.integers(1, 3))


def _three_legged(draw, d, n):
    """-d(red_i, blue_j)/2 on a tree of three legs of one or two edges
    from a centre, each leg end carrying a red and a blue mark (so the tree
    is no caterpillar for d, n >= 3); the other marks sit on drawn nodes."""
    adj, ends = {0: {}}, []
    for _ in range(3):
        prev = 0
        for _ in range(draw(st.integers(1, 2))):
            node = len(adj)
            w = F(draw(st.integers(1, 4)), draw(st.integers(1, 3)))
            adj[node] = {prev: w}
            adj[prev][node] = w
            prev = node
        ends.append(prev)
    red = [draw(st.integers(0, len(adj) - 1)) for _ in range(d)]
    blue = [draw(st.integers(0, len(adj) - 1)) for _ in range(n)]
    red[:3] = blue[:3] = ends
    red, blue = draw(st.permutations(red)), draw(st.permutations(blue))

    def distances(source):
        dist, todo = {source: F(0)}, [source]
        while todo:
            x = todo.pop()
            for y, w in adj[x].items():
                if y not in dist:
                    dist[y] = dist[x] + w
                    todo.append(y)
        return dist

    return TropMatrix.make([[-distances(r)[b] / 2 for b in blue] for r in red])


@st.composite
def rank2_matrices(draw):
    """A tropical rank <= 2 matrix of 2..5 rows and columns, with negative
    entries and denominators up to 3, rescaled by drawn row and column
    shifts: a three-legged tree metric (the frame path), a random
    bicolored tree metric, or a product B ⊙ C with two inner columns."""
    kind = draw(st.sampled_from(("three_legged", "tree", "product")))
    low = 3 if kind == "three_legged" else 2
    d, n = draw(st.integers(low, 5)), draw(st.integers(low, 5))
    if kind == "three_legged":
        a = _three_legged(draw, d, n)
    elif kind != "product":
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        a = tree_to_matrix(samples.random_bicolored_tree(rng, d, n), d, n)
    else:
        b = TropMatrix.make([[draw(RATIONALS) for _ in range(2)] for _ in range(d)])
        c = TropMatrix.make([[draw(RATIONALS) for _ in range(n)] for _ in range(2)])
        a = trop_mat_mul(b, c)
    rows = [draw(RATIONALS) for _ in range(d)]
    cols = [draw(RATIONALS) for _ in range(n)]
    return samples.scale_rows_cols(a, rows, cols)


@st.composite
def generator_pairs(draw):
    """u (d pairs) and v (n pairs) of one- or two-term series with signed
    coefficients and exponents over 1, 2 or 3, two frame rows, and a
    shift."""
    d, n = draw(st.integers(2, 5)), draw(st.integers(1, 5))

    def series():
        terms = draw(st.lists(st.tuples(RATIONALS, RATIONALS), min_size=1, max_size=2))
        return PuiseuxSeries.make([(e, c) for e, c in terms])

    u = [(series(), series()) for _ in range(d)]
    v = [(series(), series()) for _ in range(n)]
    p1, p2 = sorted(draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True)))
    return u, v, p1, p2, draw(RATIONALS)


# --- tests ----------------------------------------------------------------


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rank2_matrices())
def test_grid_frame_is_the_fraction_frame(a):
    assert lifts._completion_frame(a) == ref_frame(a)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(generator_pairs())
def test_two_combinations_equal_the_twelve_products(args):
    got = lifts._frame_completion(*args)
    assert got == ref_completion(*args)
    assert all(s.trunc is None for row in got for s in row)


def _lift_or_error(a, seed):
    try:
        return lifts.lift_rank2_real(a, seed=seed)
    except GenericRetryExhausted as exc:
        return str(exc)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rank2_matrices(), st.integers(1, 5))
def test_lift_equals_the_reference_lift_term_for_term(a, seed):
    got = _lift_or_error(a, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lifts, "_completion_frame", ref_frame)
        mp.setattr(lifts, "_frame_completion", ref_completion)
        want = _lift_or_error(a, seed)
    if isinstance(want, str):
        assert got == want
        return
    assert got.method == want.method
    assert got.lift == want.lift
    assert got.transcript == want.transcript


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_three_legged_trees_take_the_frame_path(data):
    """The drawn three-legged inputs reach the frame completion: such a
    tree is no caterpillar, so the matrix is not a product of two
    columns, and its lift is built from a frame.  A few of them have no
    frame (a known gap of the construction) and are drawn again."""
    a = _three_legged(data.draw, data.draw(st.integers(3, 5)), data.draw(st.integers(3, 5)))
    assert not lifts.barvinok_rank2(a).ok
    frame = lifts._completion_frame(a)
    assert frame == ref_frame(a)
    assume(frame is not None)
    cert = lifts.lift_rank2_real(a, seed=1)
    assert cert.method == "frame_completion" and cert.valid
