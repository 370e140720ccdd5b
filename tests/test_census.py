"""The census of the 3 x 3 symmetric box with entries 0-2: each of the 16
(variety, mode) questions of each of its 165 orbits has a verdict that
its lift bears out (tests/census.py).  Fixed slices of the 4 x 4 box with
entries 0-2 and of the 5 x 5 box with entries 0-1 have exactly the gaps
that their boxes' gap files list for them."""

from itertools import permutations

import pytest

from census import (
    MEMBERS,
    MODES,
    gaps,
    known_gaps,
    main,
    orbit_count,
    rows_of,
    symmetric_orbits,
)
from troplift import cli, tropical
from troplift.puiseux import PuiseuxSeries
from troplift.tropical import sym_trop_rank, trop_rank
from troplift.tropmat import TropMatrix
from troplift.verify import verify_lift

BOX = symmetric_orbits(3, range(3))
# every 16th orbit of the 4 x 4 box with entries 0-2, and every 8th of the
# 5 x 5 box with entries 0-1, in enumeration order
SLICE = symmetric_orbits(4, range(3))[::16]
SLICE_5X5 = symmetric_orbits(5, range(2))[::8]


def test_orbit_counts():
    counts = [orbit_count(3, 3), orbit_count(4, 2), orbit_count(4, 3), orbit_count(5, 2)]
    assert counts == [165, 90, 3132, 544]


@pytest.mark.parametrize("n, k", [(3, 3), (4, 2)])
def test_one_matrix_per_orbit(n, k):
    """The least upper triangle of an orbit is unique, so as many distinct
    matrices as orbits means one matrix in each."""
    box = symmetric_orbits(n, range(k))
    assert len(box) == len(set(box)) == orbit_count(n, k)


def test_every_verdict_comes_with_its_certificate_or_refusal():
    assert gaps(BOX) == []


@pytest.mark.parametrize(
    "box, size, n, k", [(SLICE, 196, 4, 3), (SLICE_5X5, 68, 5, 2)], ids=["4x4", "5x5"]
)
def test_the_slice_has_exactly_its_known_gaps(box, size, n, k):
    """A gap that appears or closes in a slice fails here until its box's
    gap file is rewritten (`python tests/census.py N K` checks the whole
    box).  The 5 x 5 slice runs the 5 x 5 rank <= 2 scans of the decision
    path, and its gaps include two rank2 rows."""
    inside = [rows_of(a) for a in box]
    assert len(box) == size
    assert gaps(box) == [row for row in known_gaps(n, k) if row["rows"] in inside]


def test_the_script_counts_the_3x3_box(capsys):
    assert main(["3", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "rank2 C False/refused: 94 True/certificate: 71"
    assert out[-2:] == ["sym_corank1 C+ true and R+ false on 0 inputs", "0 gap rows"]


def test_the_script_fails_when_the_c_and_r_verdicts_differ(monkeypatch, capsys):
    """A checker that cannot fail shows nothing: over C, this corank1
    question asks rank <= 2 instead, which every 2 x 2 matrix is."""
    rank2, corank1 = MEMBERS["rank2"], MEMBERS["corank1"]
    monkeypatch.setitem(
        MEMBERS, "corank1", lambda a, mode, bound: (rank2 if mode == "C" else corank1)(a, mode, bound)
    )
    assert main(["2", "2"]) == 1
    assert "corank1 C and R verdicts differ on [['0', '0'], ['0', '1']]" in capsys.readouterr().out


def test_the_script_fails_on_a_truncated_corank1_certificate(monkeypatch, capsys):
    """A corank1 certificate with a truncated entry still verifies, to its
    truncation, but it is not exact, so the census reports it and fails."""
    real = cli._run_lift

    def truncating(a, variety, mode, cfg):
        cert = real(a, variety, mode, cfg)
        if variety == "corank1":
            rows = [list(row) for row in cert.lift]
            rows[0][0] = PuiseuxSeries.make(rows[0][0].terms, 10)
            cert.lift = tuple(tuple(row) for row in rows)
            verify_lift(cert)
            assert cert.valid
        return cert

    monkeypatch.setattr(cli, "_run_lift", truncating)
    assert main(["2", "2"]) == 1
    out = capsys.readouterr().out
    assert "corank1 R+ certificate is not exact on [['0', '0'], ['0', '0']]" in out
    assert "corank1 R False/refused: 4 True/inexact_certificate: 2" in out.splitlines()


def test_the_script_fails_when_a_rank_differs_from_its_full_scan(monkeypatch, capsys):
    """A plain rank one too high on the matrices with a 1 off the
    diagonal, and so a symmetric rank that starts from it, fails the
    census's comparison with the full scans."""
    real = tropical.trop_rank
    monkeypatch.setattr(tropical, "trop_rank", lambda a, bound: real(a, bound) + (a[0, 1] == 1))
    assert main(["2", "2"]) == 1
    out = capsys.readouterr().out
    assert "trop_rank 3 differs from the full scan's 2 on [['0', '1'], ['1', '0']]" in out
    assert "sym_trop_rank 3 differs from the full scan's 2 on [['0', '1'], ['1', '0']]" in out


def test_verdicts_are_invariant_under_relabelling():
    """The premise of the census: relabelling rows and columns together
    changes no verdict."""
    for a in BOX:
        want = [MEMBERS[v](a, m).verdict for v in MEMBERS for m in MODES]
        for p in permutations(range(3)):
            b = TropMatrix.make([[a[p[i], p[j]] for j in range(3)] for i in range(3)], symmetric=True)
            assert [MEMBERS[v](b, m).verdict for v in MEMBERS for m in MODES] == want


def test_symmetric_rank_2_past_the_outer_square_is_tropical_rank_2():
    """lift_sym_rank2_real hands sym_tree_barvinok the tropical rank 2
    without a plain rank scan: trop_rank <= sym_trop_rank, and a symmetric
    matrix of tropical rank 1 is an outer square.  It picks the outer
    square by sym_trop_rank <= 1, which holds exactly for outer squares."""
    for a in BOX:
        if sym_trop_rank(a) <= 2:
            outer = all(a[i, j] == (a[i, i] + a[j, j]) / 2 for i in range(3) for j in range(3))
            assert trop_rank(a) == (1 if outer else 2)
            assert (sym_trop_rank(a) <= 1) == outer
