"""The benchmark's output checks reject corrupted outputs.

Each test builds a correct output by hand, shows that it passes, then
corrupts it and shows that the check fails.  No troplift import, so a
fault in the program cannot make a checker look sound.
"""

from __future__ import annotations

import copy
import json
import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import inputs  # noqa: E402


def _series(pairs, trunc="inf"):
    return {"terms": [{"exp": str(e), "coef": str(c)} for e, c in pairs], "trunc": trunc}


def _rank2_certificate():
    """Lift of B ⊙ C as the entrywise sum t^(B_i1 + C_1j) + t^(B_i2 + C_2j)."""
    b = [[Fraction(0), Fraction(2)], [Fraction(1), Fraction(0)], [Fraction(3), Fraction(1)]]
    c = [[Fraction(0), Fraction(1), Fraction(2)], [Fraction(1), Fraction(0), Fraction(3)]]
    target = inputs.min_plus(b, c)
    lift = [
        [_series(sorted([(b[i][0] + c[0][j], 1), (b[i][1] + c[1][j], 1)])) for j in range(3)]
        for i in range(3)
    ]
    for row in lift:  # merge equal exponents the way an encoder would
        for s in row:
            if len(s["terms"]) == 2 and s["terms"][0]["exp"] == s["terms"][1]["exp"]:
                s["terms"] = [{"exp": s["terms"][0]["exp"], "coef": "2"}]
    doc = {
        "target": {"symmetric": False, "entries": inputs.encode_matrix(target)},
        "lift": lift,
        "claimed": "rank<=2",
        "positivity": "all-positive",
    }
    return doc, target


def _singular_truncated_certificate():
    """[[1 - t, 1], [1, 1/(1 - t)]]: the determinant vanishes below t^3."""
    doc = {
        "target": {"symmetric": True, "entries": [["0", "0"], ["0", "0"]]},
        "lift": [
            [_series([(0, 1), (1, -1)]), _series([(0, 1)])],
            [_series([(0, 1)]), _series([(0, 1), (1, 1), (2, 1)], trunc="3")],
        ],
        "claimed": "symmetric singular",
        "positivity": "all-positive",
    }
    return doc, [[Fraction(0)] * 2] * 2


def _check(doc, variety, mode, target):
    return checks.check_certificate(json.dumps(doc), variety, mode, target)


def test_rank2_certificate_passes_and_a_perturbed_entry_fails():
    doc, target = _rank2_certificate()
    assert _check(doc, "rank2", "R+", target) == []
    bad = copy.deepcopy(doc)
    bad["lift"][1][2]["terms"][-1]["coef"] = "3/2"
    problems = _check(bad, "rank2", "R+", target)
    assert any("rank 3 > 2" in p for p in problems), problems


def test_shifted_valuation_fails():
    doc, target = _rank2_certificate()
    bad = copy.deepcopy(doc)
    term = bad["lift"][0][0]["terms"][0]
    term["exp"] = str(Fraction(term["exp"]) + 1)
    problems = _check(bad, "rank2", "R+", target)
    assert any("valuation" in p for p in problems), problems


def test_claim_and_positivity_must_match_the_request():
    doc, target = _rank2_certificate()
    assert any("claimed" in p for p in _check(doc, "corank1", "R+", target))
    bad = copy.deepcopy(doc)
    bad["positivity"] = "none"
    assert any("positivity" in p for p in _check(bad, "rank2", "R+", target))
    bad = copy.deepcopy(doc)
    bad["lift"][2][2]["terms"][0]["coef"] = "-1"
    assert any("nonpositive" in p for p in _check(bad, "rank2", "R+", target))


def test_truncated_singular_certificate_with_a_wrong_term_fails():
    doc, target = _singular_truncated_certificate()
    assert _check(doc, "sym_corank1", "R+", target) == []
    wrong = copy.deepcopy(doc)
    wrong["lift"][1][1]["terms"][2]["coef"] = "2"
    problems = _check(wrong, "sym_corank1", "R+", target)
    assert any("nonzero at order 2" in p for p in problems), problems
    asym = copy.deepcopy(doc)
    asym["lift"][0][1]["terms"][0]["coef"] = "2"
    assert any("differ" in p for p in _check(asym, "sym_corank1", "R+", target))


def test_vanishing_known_only_to_the_tropical_value_fails():
    field = checks.Field(None)
    one = ([(Fraction(0), (Fraction(1), Fraction(0)))], None)
    unknown = ([], Fraction(0))
    assert checks.check_vanishing(field, [[one, one], [one, one]], Fraction(0), "m") == []
    problems = checks.check_vanishing(field, [[unknown]], Fraction(0), "m")
    assert problems and "not above the tropical value" in problems[0]


def test_verdict_table_breaking_c_equals_r_fails():
    a = inputs.mirror_product(inputs.workload_rng("test", 1), 4)
    table = {v: {m: True for m in checks.MODES} for v in checks.VARIETIES}
    table["sym_corank1"]["C+"] = table["sym_corank1"]["R+"] = checks.sym_tie(a)
    table["sym_corank1"]["C"] = table["sym_corank1"]["R"] = checks.sym_tie(a)
    table["corank1"] = {m: checks.plain_tie(a) for m in checks.MODES}
    assert checks.check_verdicts(a, table, "mirror_product") == []
    bad = copy.deepcopy(table)
    bad["rank2"]["R"] = False
    assert "rank2: C != R" in checks.check_verdicts(a, bad, "mirror_product")


def test_brute_force_ties():
    ex52 = [[Fraction(x) for x in row] for row in checks.EX52]
    assert checks.sym_tie(ex52)
    identity_like = [[Fraction(0 if i == j else 5) for j in range(3)] for i in range(3)]
    assert not checks.plain_tie(identity_like)
    assert not checks.all_3x3_singular(identity_like)
    zeros = [[Fraction(0)] * 3 for _ in range(3)]
    assert checks.plain_tie(zeros) and checks.sym_tie(zeros) and checks.all_3x3_singular(zeros)
