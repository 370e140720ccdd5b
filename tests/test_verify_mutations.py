"""Mutated golden certificates: each mutant fails a named check, or a
stated reason says why it still verifies.

Hypothesis draws one mutation of one of the golden certificates in
tests/golden (all eight claim x positivity pairs occur) and applies it in
memory: a coefficient, an exponent, two swapped entries, the claim, the
positivity, a truncation order, or one coefficient's radicand made
negative or changed to another positive number.  SPACE
lists every such mutation, so the draws come from a finite set.  The
reasons a mutant may keep verifying are computed without the verifier:
an entry change whose 2x2 cofactors vanish, a swap of equal entries, a
claim that the old one implies, a positivity that claims less or already
holds, a lower truncation, which claims less about its entry, and a
raised truncation whose mirrored entry keeps the old one.
"""

import json
import re
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from troplift import jsonio
from troplift.puiseux import PuiseuxSeries
from troplift.quadext import QuadExt, coeff_sign
from troplift.verify import CLAIMS, POSITIVITIES, verify_lift

F = Fraction
GOLDEN = Path(__file__).parent / "golden"
VERIFY_SOURCE = Path(__file__).parent.parent / "src" / "troplift" / "verify.py"
CERTS = {
    path.stem: jsonio.decode_certificate(json.loads(path.read_text()))
    for path in sorted(GOLDEN.glob("*.json"))
    if path.name != "cases.json"
}
NAMES = sorted(CERTS)
# every check name verify_lift can emit, read off its source
CHECKS = set(re.findall(r'"check": "(\w+)"', VERIFY_SOURCE.read_text()))
SETTINGS = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _with_entries(cert, changes):
    rows = [list(row) for row in cert.lift]
    for (i, j), s in changes.items():
        rows[i][j] = s
    return replace(cert, lift=tuple(tuple(r) for r in rows))


def _failing(cert):
    verify_lift(cert)
    return {step["check"] for step in cert.transcript if not step["ok"]}


def _positions(cert):
    return [(i, j) for i in range(cert.target.rows) for j in range(cert.target.cols)]


# ---------------------------------------------------------------------------
# reasons a mutant may still verify, computed without the verifier


def _cofactors_vanish(cert, i, j):
    """A rank claim on an exact lift, and every 2x2 minor off row i and
    column j vanishes: each 3x3 minor through (i, j) is linear in that
    entry with one of those minors as its coefficient, so no change of
    the entry can make it nonzero."""
    lift = cert.lift
    if "rank" not in cert.claimed or any(e.trunc is not None for row in lift for e in row):
        return None
    rows = [r for r in range(cert.target.rows) if r != i]
    cols = [c for c in range(cert.target.cols) if c != j]
    for a, b in combinations(rows, 2):
        for c, e in combinations(cols, 2):
            if not (lift[a][c] * lift[b][e] - lift[a][e] * lift[b][c]).is_known_zero():
                return None
    return "the changed entry's 2x2 cofactors vanish, so every 3x3 minor stays zero"


def _symmetric(lift):
    n = len(lift)
    return all(len(row) == n for row in lift) and all(
        lift[i][j] == lift[j][i] for i in range(n) for j in range(n)
    )


def _implied_claim(cert, claimed):
    """Why the certificate's own claim implies `claimed` on its lift."""
    d, n = cert.target.rows, cert.target.cols
    if "symmetric" in claimed and "symmetric" not in cert.claimed:
        if not _symmetric(cert.lift):
            return None
    if "rank" in claimed and "singular" in cert.claimed and n > 3:
        return None  # a singular n x n with n > 3 may have rank 3
    if "singular" in claimed and "rank" in cert.claimed and (d != n or n < 3):
        return None  # rank <= 2 forces a zero determinant only when n >= 3
    return f"{cert.claimed} implies {claimed} on this {d}x{n} lift"


def _positive_leads(cert):
    if all(e.terms and coeff_sign(e.lead_coeff()) > 0 for row in cert.lift for e in row):
        return "every leading coefficient is already positive"
    return None


# ---------------------------------------------------------------------------
# mutations: each maps a golden certificate to (mutant, reason it may still
# verify or None, a check it must fail or None)


def _changed_term(cert, i, j, k, change):
    s = cert.lift[i][j]
    terms = list(s.terms)
    terms[k] = change(*terms[k])
    mutant = _with_entries(cert, {(i, j): PuiseuxSeries.make(terms, s.trunc)})
    return mutant, _cofactors_vanish(cert, i, j), None


def coefficient(cert, i, j, k, factor):
    return _changed_term(cert, i, j, k, lambda e, c: (e, c * factor))


def exponent(cert, i, j, k, shift):
    return _changed_term(cert, i, j, k, lambda e, c: (e + shift, c))


def swap(cert, p, q):
    a, b = cert.lift[p[0]][p[1]], cert.lift[q[0]][q[1]]
    reason = "the two entries are equal series" if a == b else None
    return _with_entries(cert, {p: b, q: a}), reason, None


def claim(cert, claimed):
    return replace(cert, claimed=claimed), _implied_claim(cert, claimed), None


def positivity(cert, value):
    reason = "'none' claims less" if value == "none" else _positive_leads(cert)
    return replace(cert, positivity=value), reason, None


def truncation(cert, i, j, trunc):
    s = cert.lift[i][j]
    mutant = _with_entries(cert, {(i, j): PuiseuxSeries.make(s.terms, trunc)})
    if trunc is not None and trunc <= s.terms[0][0]:
        return mutant, None, "valuations"  # no known term is left
    if trunc is not None and (s.trunc is None or trunc < s.trunc):
        return mutant, "a lower truncation claims less about the entry", None
    if i != j and _symmetric(cert.lift):
        reason = (
            "the mirrored entry keeps the old truncation: transposing a permutation "
            "through the changed entry gives one through its mirror with the same "
            "valuations, so the determinant is known to the same order"
        )
        return mutant, reason, None
    return mutant, None, None


def _radicand_terms(cert):
    """(i, j, k) of every coefficient a + b sqrt(d) with b != 0."""
    return [
        (i, j, k)
        for i, j in _positions(cert)
        for k, (_, c) in enumerate(cert.lift[i][j].terms)
        if isinstance(c, QuadExt) and c.b
    ]


def radicand(cert, i, j, k, d):
    """Coefficient k of entry (i, j), a + b sqrt(d0), becomes a + b sqrt(d),
    built directly, since jsonio refuses d <= 0 in a file.  A negative d
    is no real number; otherwise the other coefficients over sqrt(d0), if
    any, mix two radicands in one lift."""
    s = cert.lift[i][j]
    terms = list(s.terms)
    e, c = terms[k]
    terms[k] = (e, QuadExt(c.a, c.b, d))
    mutant = _with_entries(cert, {(i, j): PuiseuxSeries(tuple(terms), s.trunc)})
    if d <= 0:
        return mutant, None, "real_coefficients"
    return mutant, None, "one_radicand" if len(_radicand_terms(cert)) > 1 else None


def _truncations(cert, i, j):
    """A truncated entry: exact, or its order moved by -1 ... +2.  An exact
    entry: truncated at or below its valuation, or above its last term."""
    s = cert.lift[i][j]
    if s.trunc is not None:
        return [None] + [s.trunc + step for step in (F(-1), F(-1, 2), F(1, 2), F(1), F(2))]
    lead, last = s.terms[0][0], s.terms[-1][0]
    return [lead - F(1, 2), lead, last + 1]


def _space():
    """Every mutation of every golden certificate, by class."""
    space = {kind: [] for kind in MUTATE}
    for name in NAMES:
        cert = CERTS[name]
        for i, j in _positions(cert):
            for k in range(len(cert.lift[i][j].terms)):
                space["coefficient"] += [(name, i, j, k, f) for f in (F(2), F(-1), F(1, 3))]
                space["exponent"] += [(name, i, j, k, e) for e in (F(-1), F(1, 2), F(1))]
            space["truncation"] += [(name, i, j, t) for t in _truncations(cert, i, j)]
        space["swap"] += [(name, p, q) for p, q in combinations(_positions(cert), 2)]
        space["claim"] += [(name, c) for c in CLAIMS if c != cert.claimed]
        space["positivity"] += [(name, p) for p in POSITIVITIES if p != cert.positivity]
        for i, j, k in _radicand_terms(cert):
            d = cert.lift[i][j].terms[k][1].d
            space["radicand"] += [(name, i, j, k, r) for r in (-d, d + 1)]
    return space


MUTATE = {
    "coefficient": coefficient,
    "exponent": exponent,
    "swap": swap,
    "claim": claim,
    "positivity": positivity,
    "truncation": truncation,
    "radicand": radicand,
}
SPACE = _space()
# the checks a mutant of each class may fail
ALGEBRA = {"minors_3x3_vanish", "determinant_vanishes"}
MAY_FAIL = {
    "coefficient": ALGEBRA | {"positive_leading_terms", "symmetry"},
    "exponent": ALGEBRA | {"valuations", "positive_leading_terms", "symmetry"},
    "swap": ALGEBRA | {"valuations", "symmetry"},
    "claim": ALGEBRA | {"square", "symmetry"},
    "positivity": {"positive_leading_terms"},
    "truncation": ALGEBRA | {"valuations", "positive_leading_terms"},
    "radicand": ALGEBRA
    | {"real_coefficients", "one_radicand", "positive_leading_terms", "symmetry"},
}
# classes whose reasons are exact: the mutant verifies exactly when it has one
EXACT = {"claim", "positivity"}


@pytest.mark.parametrize("kind", list(MUTATE))
@SETTINGS
@given(data=st.data())
def test_mutant_fails_a_named_check_or_says_why_not(kind, data):
    params = data.draw(st.sampled_from(SPACE[kind]))
    name, *rest = params
    mutant, reason, must_fail = MUTATE[kind](CERTS[name], *rest)
    failing = _failing(mutant)
    assert failing or reason, f"{kind} mutant {params} verifies with no reason"
    assert failing <= MAY_FAIL[kind], f"{kind} mutant {params} fails {failing}"
    assert must_fail is None or must_fail in failing
    if kind in EXACT:
        assert (not failing) == (reason is not None)


# one certificate failing each check verify_lift can emit
FAILS = {
    "claim": lambda: replace(CERTS["fig4a-rank2-R"], claimed="rank<=1"),
    "positivity": lambda: replace(CERTS["fig4a-rank2-R"], positivity="mostly"),
    "shape": lambda: replace(CERTS["fig4a-rank2-R"], lift=CERTS["fig4a-rank2-R"].lift[:-1]),
    "valuations": lambda: truncation(CERTS["eq1-rank2-R"], 0, 0, F(-20))[0],
    "real_coefficients": lambda: radicand(CERTS["fig2a-sym_corank1-R"], 1, 2, 0, F(-2))[0],
    "one_radicand": lambda: radicand(CERTS["fig2a-sym_corank1-R"], 1, 2, 0, F(2))[0],
    "positive_leading_terms": lambda: positivity(CERTS["eq1-rank2-R"], "all-positive")[0],
    "square": lambda: claim(CERTS["sample00-rank2-R"], "singular")[0],
    "symmetry": lambda: claim(CERTS["eq1-rank2-R"], "symmetric rank<=2")[0],
    "minors_3x3_vanish": lambda: claim(CERTS["ex52-corank1-R"], "rank<=2")[0],
    "determinant_vanishes": lambda: coefficient(CERTS["ex52-corank1-R"], 0, 0, 0, F(2))[0],
}


def test_every_check_has_a_failing_certificate():
    assert set(FAILS) == CHECKS


@pytest.mark.parametrize("check", sorted(FAILS))
def test_named_check_fails(check):
    assert check in _failing(FAILS[check]())


def _subtracted_symmetry_detail(lift):
    """The symmetry step's detail as computed by subtracting every mirrored
    pair of entries, the diagonal included."""
    n = len(lift)
    asym = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if not (lift[i][j] - lift[j][i]).is_known_zero()
    ]
    return "lift is symmetric" if not asym else f"asymmetric at {asym[:4]}"


def _claims_symmetry(kind, params):
    name, *rest = params
    claimed = rest[0] if kind == "claim" else CERTS[name].claimed
    return "symmetric" in claimed


SYMMETRY_KINDS = ("coefficient", "exponent", "swap", "claim", "radicand")
SYMMETRIC_SPACE = {
    kind: [p for p in SPACE[kind] if _claims_symmetry(kind, p)] for kind in SYMMETRY_KINDS
}


@pytest.mark.parametrize("kind", SYMMETRY_KINDS)
@SETTINGS
@given(data=st.data())
def test_symmetry_detail_is_the_one_subtraction_gives(kind, data):
    name, *rest = data.draw(st.sampled_from(SYMMETRIC_SPACE[kind]))
    mutant = MUTATE[kind](CERTS[name], *rest)[0]
    verify_lift(mutant)
    steps = [step for step in mutant.transcript if step["check"] == "symmetry"]
    if kind in ("coefficient", "exponent", "swap"):
        assert len(steps) == 1
    for step in steps:
        assert step["detail"] == _subtracted_symmetry_detail(mutant.lift)
        assert step["ok"] == (step["detail"] == "lift is symmetric")


def test_asymmetric_detail_lists_both_mirrored_positions():
    mutant = coefficient(CERTS["fig2a-sym_corank1-R"], 0, 1, 0, F(2))[0]
    verify_lift(mutant)
    assert {"check": "symmetry", "ok": False, "detail": "asymmetric at [(0, 1), (1, 0)]"} in (
        mutant.transcript
    )
    plain = FAILS["symmetry"]()
    verify_lift(plain)
    (step,) = [step for step in plain.transcript if step["check"] == "symmetry"]
    assert step["detail"] == _subtracted_symmetry_detail(plain.lift) != "lift is symmetric"
