"""Golden series calls: every `ps_sqrt` and `quad_numerators` call the
criterion-5 property suite makes returns the result whose digest is stored
in tests/golden/series (regenerated by tests/golden/make_golden_series.py).
quad_roots is checked on each recorded quad_numerators input against the
product-form reference of tests/test_series_recurrence.py, which shares no
division code with it.  series/pinned_calls.json keeps fixed `ps_inv` and
`quad_roots` inputs, recorded from the suite when the lifts still made these
calls; no generator rewrites them.  Each replays to its digest and agrees
with the power-sum or product-form reference.  The generator itself must
record what the lifts call, and refuse a name it cannot find."""

import json
from pathlib import Path

import pytest

from golden.make_golden_series import RECORDED, bindings, call, record, result_digest
from test_series_recurrence import TailPastOrder, outcome, ref_ps_inv, ref_quad_roots
from troplift import jsonio, lifts
from troplift.puiseux import ps_inv, quad_numerators, quad_roots

SERIES = Path(__file__).parent / "golden" / "series"
CALLS = json.loads((SERIES / "calls.json").read_text())
PINNED = json.loads((SERIES / "pinned_calls.json").read_text())
REFERENCES = {"ps_inv": (ps_inv, ref_ps_inv), "quad_roots": (quad_roots, ref_quad_roots)}


@pytest.mark.parametrize(
    "case", CALLS, ids=[f"{c['fn']}-{k:03d}" for k, c in enumerate(CALLS)]
)
def test_series_call_reproduces_golden_digest(case):
    got = call(case["fn"], case["series"], case["trunc"])
    assert result_digest(got) == case["result_digest"]


QUAD_CASES = [(k, c) for k, c in enumerate(CALLS) if c["fn"] == "quad_numerators"]


@pytest.mark.parametrize(
    "case", [c for _, c in QUAD_CASES], ids=[f"quad_numerators-{k:03d}" for k, _ in QUAD_CASES]
)
def test_quad_roots_match_the_product_form_on_the_recorded_calls(case):
    args = [jsonio.decode_series(s) for s in case["series"]]
    trunc = None if case["trunc"] is None else jsonio.frac_from_str(case["trunc"])
    want = outcome(ref_quad_roots, *args, trunc)
    assert want is not TailPastOrder
    assert outcome(quad_roots, *args, trunc) == want


@pytest.mark.parametrize(
    "case", PINNED, ids=[f"{c['fn']}-{k:03d}" for k, c in enumerate(PINNED)]
)
def test_pinned_call_reproduces_its_digest_and_the_reference(case):
    got = call(case["fn"], case["series"], case["trunc"])
    assert result_digest(got) == case["result_digest"]
    fn, ref = REFERENCES[case["fn"]]
    args = [jsonio.decode_series(s) for s in case["series"]]
    trunc = None if case["trunc"] is None else jsonio.frac_from_str(case["trunc"])
    want = outcome(ref, *args, trunc)
    assert want is not TailPastOrder
    assert outcome(fn, *args, trunc) == want


def test_every_recorded_name_is_bound_in_a_home_module():
    for name in RECORDED:
        assert bindings(name), name
    with pytest.raises(SystemExit, match="ps_gone is bound in no home module"):
        bindings("ps_gone")


def test_recorder_sees_the_calls_the_lifts_make():
    """The symmetric solve's call, made as lifts.py makes it (trunc by
    position), is recorded with the square root it takes, and every record
    replays to its digest.  The solve clears 2A instead of dividing by it,
    so lifts.py binds no ps_div."""
    case = next(c for c in CALLS if c["fn"] in ("quad_roots", "quad_numerators"))
    A, B, C = (jsonio.decode_series(s) for s in case["series"])
    trunc = None if case["trunc"] is None else jsonio.frac_from_str(case["trunc"])
    calls: list = []
    replaced = record(calls, set())
    try:
        assert lifts.quad_numerators(A, B, C, trunc)[3] > 0
    finally:
        for mod, name, fn in replaced:
            setattr(mod, name, fn)
    assert lifts.quad_numerators is quad_numerators and not hasattr(lifts, "ps_div")
    assert {c["fn"] for c in calls} == {"quad_numerators", "ps_sqrt"}
    for c in calls:
        assert result_digest(call(c["fn"], c["series"], c["trunc"])) == c["result_digest"]
