"""The Barvinok witnesses and the spine lift's data are built and checked
on one integer grid (tropical._witness_grid), and only their results
become Fractions.

The references below are the Fraction builders they replace, read off
the tree's spine offsets divided by its unit (spine_coordinates below);
the int builders must return equal matrices,
dstd and shift.  Inputs put the matrix and the tree on different grids:
entries with halves and thirds (scale > 1), and trees rebuilt from their
Fraction lengths, whose unit is then the lcm of those denominators, so
that lcm(scale, unit) != unit.  The trop_mat_mul product checks in
test_tropical.py stay the independent Fraction check of the witnesses.
"""

import random
import subprocess
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from samples import random_barvinok2_matrix, scale_rows_cols, scale_symmetric
from troplift import lifts, tropical
from troplift.fixtures import fixture
from troplift.membership import member_corank1, member_rank2, member_sym_corank1, member_sym_rank2
from troplift.trees import BicoloredTree, _rank2_tree, is_caterpillar, symbic_classify
from troplift.tropmat import TropMatrix, trop_mat_mul

F = Fraction
MODES = ("C", "R", "C+", "R+")
MEMBERS = (member_rank2, member_sym_rank2, member_corank1, member_sym_corank1)


def spine_coordinates(tree) -> dict:
    """A caterpillar's spine offsets as Fractions: distances from its
    lowest-numbered spine end."""
    return {x: F(d, tree.unit) for x, d in tree.spine_offsets().items()}


def ref_caterpillar_witness(a, tree):
    coord = spine_coordinates(tree)
    d, n = a.rows, a.cols
    p = [coord[tree.leaf_node("red", i + 1)] for i in range(d)]
    q = [coord[tree.leaf_node("blue", j + 1)] for j in range(n)]
    c = [a[i, 0] + abs(p[i] - q[0]) / 2 for i in range(d)]
    cp = [a[0, j] + abs(p[0] - q[j]) / 2 - c[0] for j in range(n)]
    b = TropMatrix.make([[c[i] - p[i] / 2, c[i] + p[i] / 2] for i in range(d)])
    cmat = TropMatrix.make([[cp[j] + q[j] / 2 for j in range(n)], [cp[j] - q[j] / 2 for j in range(n)]])
    return b, cmat


def ref_sym_caterpillar_witness(a, tree, report):
    coord = spine_coordinates(tree)
    n = a.rows
    if report.fixed_nodes:
        center = coord[report.fixed_nodes[0]]
    else:
        u, v = report.swapped_edge
        center = (coord[u] + coord[v]) / 2
    side = []
    dist = []
    for i in range(n):
        x = coord[tree.leaf_node("blue", i + 1)]
        dist.append(abs(x - center))
        side.append(0 if x == center else (1 if x > center else -1))
    shift = [a[i, i] / 2 for i in range(n)]
    ref = next((s for s in side if s != 0), 1)
    rows = []
    for i in range(n):
        if side[i] == 0 or side[i] == ref:
            rows.append([shift[i], shift[i] + dist[i]])
        else:
            rows.append([shift[i] + dist[i], shift[i]])
    return TropMatrix.make(rows)


def ref_spine_data(asym, tree):
    n = asym.rows
    coord = spine_coordinates(tree)
    pos = [coord[tree.leaf_node("blue", i + 1)] for i in range(n)]
    order = sorted(range(n), key=lambda i: (pos[i], i))
    label = {order[0]: 0}
    for k, i in enumerate(order[1:], start=1):
        label[i] = n - k
    dstd = [Fraction(0)] * n
    for i in range(n):
        dstd[label[i]] = pos[i] - pos[order[0]]
    mstd_val = [[Fraction(0) if 0 in (i, j) else dstd[max(i, j)] for j in range(n)] for i in range(n)]
    shift = [(asym[i, i] - mstd_val[label[i]][label[i]]) / 2 for i in range(n)]
    return [label[i] for i in range(n)], dstd, shift


def rebased(tree):
    """The same tree put on the lcm of its Fraction lengths' denominators."""
    return BicoloredTree(tree.nodes, tree.adj, tree.leaves)


def frac(rng, lo=-6, hi=6):
    return F(rng.randint(lo, hi), rng.choice((1, 2, 3)))


def mirror(rows):
    m = TropMatrix.make(rows)
    return TropMatrix.make(trop_mat_mul(m, m.transpose()).entries, symmetric=True)


def plain_inputs():
    """(matrix, tree) pairs with a caterpillar tree, on shared and on
    different grids."""
    rng = random.Random(3401)
    out = [(fixture(name), None) for name in ("fig2a", "fig3b", "fig3c", "fig4a")]
    for _ in range(40):
        d, n = rng.randint(1, 5), rng.randint(1, 5)
        out.append((random_barvinok2_matrix(rng, d, n), None))
        b = TropMatrix.make([[frac(rng) for _ in range(2)] for _ in range(d)])
        c = TropMatrix.make([[frac(rng) for _ in range(n)] for _ in range(2)])
        a = trop_mat_mul(b, c)
        out.append((a, None))
        scaled = scale_rows_cols(a, [frac(rng) for _ in range(d)], [frac(rng) for _ in range(n)])
        out.append((scaled, rebased(_rank2_tree(a))))
    return out


def sym_inputs():
    """(symmetric matrix, tree) pairs whose swap fixes one node or reverses
    one edge (as in fig2a), on shared and on different grids."""
    rng = random.Random(3402)
    out = [(fixture(name), None) for name in ("fig2a", "fig3b", "fig3c")]
    for _ in range(40):
        n = rng.randint(2, 5)
        a = mirror([[frac(rng) for _ in range(2)] for _ in range(n)])
        out.append((a, None))
        scaled = scale_symmetric(a, [frac(rng) for _ in range(n)])
        out.append((scaled, rebased(_rank2_tree(a))))
    return out


def spine_inputs():
    """Symmetric (matrix, tree) pairs whose swap fixes the whole spine:
    a_ij = -|x_i - x_j| + s_i + s_j."""
    rng = random.Random(3403)
    out = [(fixture("fig4a"), None)]
    for _ in range(40):
        n = rng.randint(1, 5)
        x = [frac(rng) for _ in range(n)]
        s = [frac(rng) for _ in range(n)]
        a = TropMatrix.make(
            [[s[i] + s[j] - abs(x[i] - x[j]) for j in range(n)] for i in range(n)], symmetric=True
        )
        out.append((a, None))
        out.append((scale_symmetric(a, [frac(rng) for _ in range(n)]), rebased(_rank2_tree(a))))
    return out


def test_plain_witness_matches_the_fraction_builder():
    grids = set()
    for a, tree in plain_inputs():
        tree = tree or _rank2_tree(a)
        if not is_caterpillar(tree):
            continue
        scale, _ = a.as_int_grid()
        grids.add((scale > 1, lcm(scale, tree.unit) != tree.unit))
        assert tropical._caterpillar_witness(a, tree) == ref_caterpillar_witness(a, tree)
    assert grids >= {(True, False), (True, True)}


def test_sym_witness_matches_the_fraction_builder():
    kinds = set()
    for a, tree in sym_inputs():
        tree = tree or _rank2_tree(a)
        report = symbic_classify(tree)
        assert report.kind == "symbic" and report.one_fixed_point
        kinds.add(bool(report.fixed_nodes))
        got = tropical._sym_caterpillar_witness(a, tree, report)
        assert got == ref_sym_caterpillar_witness(a, tree, report)
    assert kinds == {True, False}, "both a fixed node and a reversed edge"


def test_spine_data_matches_the_fraction_builder():
    for a, tree in spine_inputs():
        tree = tree or _rank2_tree(a)
        report = symbic_classify(tree)
        assert len(report.fixed_nodes) == tree.nodes
        assert lifts._spine_data(a, tree) == ref_spine_data(a, tree)


# ---------------------------------------------------------------------------
# the checks raise, also under python -O


def _grid_ints(m, big):
    return [[int(x * big) for x in row] for row in m.entries]


def _lowered(rows, i, k):
    out = [list(row) for row in rows]
    out[i][k] -= 1
    return out


def _attaining(b, c, i, j):
    """The inner index k at which b[i][k] + c[k][j] is least."""
    return 0 if b[i][0] + c[0][j] <= b[i][1] + c[1][j] else 1


def check_witnesses_fail_closed():
    """Lower one witness entry by one grid unit, an entry that attains a
    product entry, so the product no longer reproduces the matrix: the
    check raises.  Give the spine data a matrix one grid unit off on one
    off-diagonal pair: its check raises."""
    a = fixture("fig3b")
    rec = tropical.barvinok_rank2(a)
    big, ga, _ = tropical._witness_grid(a, rec.tree)
    b, c = (_grid_ints(m, big) for m in rec.witness)
    tropical._check_product(b, c, ga, "plain")
    for i, j in ((0, 0), (2, 1), (1, 3)):
        k = _attaining(b, c, i, j)
        with pytest.raises(AssertionError, match="plain"):
            tropical._check_product(_lowered(b, i, k), c, ga, "plain")
        with pytest.raises(AssertionError, match="plain"):
            tropical._check_product(b, _lowered(c, k, j), ga, "plain")

    srec = tropical.sym_barvinok_rank2(a)
    big, ga, _ = tropical._witness_grid(a, srec.tree)
    rows = _grid_ints(srec.witness, big)
    tropical._check_product(rows, list(zip(*rows)), ga, "symmetric")
    for i in range(a.rows):
        bad = _lowered(rows, i, _attaining(rows, list(zip(*rows)), i, i))
        with pytest.raises(AssertionError, match="symmetric"):
            tropical._check_product(bad, list(zip(*bad)), ga, "symmetric")

    spine = fixture("fig4a")
    tree = _rank2_tree(spine)
    lifts._spine_data(spine, tree)
    rows = [list(row) for row in spine.entries]
    rows[1][2] += F(1, 2 * tree.unit)
    rows[2][1] = rows[1][2]
    with pytest.raises(AssertionError, match="spine data does not reproduce the matrix"):
        lifts._spine_data(TropMatrix.make(rows, symmetric=True), tree)


def test_witness_checks_fail_closed():
    check_witnesses_fail_closed()


def test_witness_checks_fail_closed_under_python_O():
    here = Path(__file__).resolve().parent
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(here)!r}, {str(here.parent / 'src')!r}]\n"
        "try:\n"
        "    assert False\n"
        "except AssertionError:\n"
        "    sys.exit('asserts are on: not running under -O')\n"
        "import test_witness_grid\n"
        "test_witness_grid.check_witnesses_fail_closed()\n"
        "print('ok')\n"
    )
    done = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["ok"]


# ---------------------------------------------------------------------------
# decide does no Fraction arithmetic


ARITHMETIC = ("__add__", "__sub__", "__mul__", "__truediv__", "__abs__", "__lt__")


def test_sixteen_questions_do_no_fraction_arithmetic(monkeypatch):
    """The sixteen membership questions on a caterpillar mirror product
    (its positive rank-2 parts build the plain witness), and the symmetric
    Barvinok test that the caterpillar lift reads, add, subtract, multiply,
    divide, take abs of and compare no Fraction."""
    a = mirror([[0, F(7, 2)], [F(10, 3), 0], [2, F(1, 2)], [1, 0], [F(-1, 3), 2]])
    counts = dict.fromkeys(ARITHMETIC, 0)

    def counted(name, method):
        def wrapper(*args):
            counts[name] += 1
            return method(*args)

        return wrapper

    for name in ARITHMETIC:
        monkeypatch.setattr(Fraction, name, counted(name, getattr(Fraction, name)))
    answers = [member(a, mode) for member in MEMBERS for mode in MODES]
    sym = tropical.sym_barvinok_rank2(a)
    monkeypatch.undo()
    assert counts == dict.fromkeys(ARITHMETIC, 0)
    assert [v.verdict for v in answers[:8]] == [True] * 8
    assert "witness" in answers[2].reason and sym.ok
