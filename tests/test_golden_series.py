"""Golden series calls: every `ps_inv`, `ps_sqrt` and `quad_roots` call the
criterion-5 property suite makes returns the result whose digest is stored
in tests/golden/series (regenerated by tests/golden/make_golden_series.py).
The symmetric quadratic solve calls quad_numerators and divides by 2A
itself, so each quad_roots case is also replayed that way."""

import json
from pathlib import Path

import pytest

from golden.make_golden_series import call, result_digest
from troplift import jsonio
from troplift.errors import TropliftError
from troplift.puiseux import ps_div, quad_numerators

CALLS = json.loads((Path(__file__).parent / "golden" / "series" / "calls.json").read_text())


@pytest.mark.parametrize(
    "case", CALLS, ids=[f"{c['fn']}-{k:03d}" for k, c in enumerate(CALLS)]
)
def test_series_call_reproduces_golden_digest(case):
    got = call(case["fn"], case["series"], case["trunc"])
    assert result_digest(got) == case["result_digest"]


def _numerators_then_division(A, B, C, trunc):
    n1, n2, two_a, sign = quad_numerators(A, B, C, trunc)
    if sign < 0:
        return None, None, sign
    x1 = ps_div(n1, two_a, trunc)
    return x1, x1 if sign == 0 else ps_div(n2, two_a, trunc), sign


QUAD_CASES = [(k, c) for k, c in enumerate(CALLS) if c["fn"] == "quad_roots"]


@pytest.mark.parametrize(
    "case", [c for _, c in QUAD_CASES], ids=[f"quad_roots-{k:03d}" for k, _ in QUAD_CASES]
)
def test_numerators_divided_by_2a_reproduce_the_quad_roots_digest(case):
    args = [jsonio.decode_series(s) for s in case["series"]]
    trunc = None if case["trunc"] is None else jsonio.frac_from_str(case["trunc"])
    try:
        got = _numerators_then_division(*args, trunc)
    except TropliftError as exc:
        got = exc
    assert result_digest(got) == case["result_digest"]
