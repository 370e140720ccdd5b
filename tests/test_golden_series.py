"""Golden series calls: every `ps_inv`, `ps_sqrt` and `quad_roots` call the
criterion-5 property suite makes returns the result whose digest is stored
in tests/golden/series (regenerated by tests/golden/make_golden_series.py).
quad_roots divides the numerators of quad_numerators by 2A, so each
quad_roots case is also replayed that way.  The generator itself must
record what the lifts call, and refuse a name it cannot find."""

import json
from pathlib import Path

import pytest

from golden.make_golden_series import RECORDED, bindings, call, record, result_digest
from troplift import jsonio, lifts
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
