"""Golden series calls: tests/golden/series/calls.json holds the `ps_sqrt`
and `quad_numerators` calls that the criterion-5 property suite made when
the symmetric lift still solved its quadratic through them, and
series/pinned_calls.json fixed `ps_inv` and `quad_roots` inputs from the
suite before that.  The lifts no longer call any of these functions, so
no generator rewrites either file: both are fixed replay inputs.  Each
call replays to its stored digest; quad_roots agrees with the product-form
reference of tests/test_series_recurrence.py, which shares no division
code with it, on every recorded quad_numerators input; and the integer
kernel the lift solves on, fed each recorded input through the verifier's
int reader, gives the numerators of quad_numerators and of the
series-level reference."""

import hashlib
import json
from pathlib import Path

import pytest

from test_series_recurrence import (
    TailPastOrder,
    outcome,
    ref_ps_inv,
    ref_quad_numerators,
    ref_quad_roots,
)
from troplift import jsonio, puiseux
from troplift.errors import TropliftError
from troplift.puiseux import lattice_series, ps_inv, quad_ints, quad_numerators, quad_roots
from troplift.verify import minor_ints, series_grid

SERIES = Path(__file__).parent / "golden" / "series"
CALLS = json.loads((SERIES / "calls.json").read_text())
PINNED = json.loads((SERIES / "pinned_calls.json").read_text())
REFERENCES = {"ps_inv": (ps_inv, ref_ps_inv), "quad_roots": (quad_roots, ref_quad_roots)}


def series_json(s) -> dict:
    """The JSON object jsonio writes for a series."""
    return json.loads(jsonio.dumps(s))


def result_digest(result) -> str:
    """sha256 of a series result, of a quad_roots triple or quad_numerators
    quadruple (series or None, then the discriminant sign), or of a raised
    error."""
    if isinstance(result, TropliftError):
        obj = {"raises": type(result).__name__}
    elif isinstance(result, tuple):
        *parts, sign = result
        obj = [None if x is None else series_json(x) for x in parts] + [sign]
    else:
        obj = series_json(result)
    data = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()


def call(name: str, series: list, trunc):
    """Run one recorded call on decoded arguments; errors become results."""
    args = [jsonio.decode_series(s) for s in series]
    trunc = None if trunc is None else jsonio.frac_from_str(trunc)
    try:
        return getattr(puiseux, name)(*args, trunc=trunc)
    except TropliftError as exc:
        return exc


def decoded(case) -> tuple:
    """A recorded call's series arguments and order."""
    trunc = None if case["trunc"] is None else jsonio.frac_from_str(case["trunc"])
    return [jsonio.decode_series(s) for s in case["series"]], trunc


@pytest.mark.parametrize(
    "case", CALLS, ids=[f"{c['fn']}-{k:03d}" for k, c in enumerate(CALLS)]
)
def test_series_call_reproduces_golden_digest(case):
    got = call(case["fn"], case["series"], case["trunc"])
    assert result_digest(got) == case["result_digest"]


QUAD_CASES = [(k, c) for k, c in enumerate(CALLS) if c["fn"] == "quad_numerators"]
QUAD_IDS = [f"quad_numerators-{k:03d}" for k, _ in QUAD_CASES]


@pytest.mark.parametrize("case", [c for _, c in QUAD_CASES], ids=QUAD_IDS)
def test_quad_roots_match_the_product_form_on_the_recorded_calls(case):
    args, trunc = decoded(case)
    want = outcome(ref_quad_roots, *args, trunc)
    assert want is not TailPastOrder
    assert outcome(quad_roots, *args, trunc) == want


@pytest.mark.parametrize("case", [c for _, c in QUAD_CASES], ids=QUAD_IDS)
def test_the_solve_kernel_gives_the_numerators_on_the_recorded_calls(case):
    """A, B and C as one row of a grid, each read back as a 1 x 1 minor,
    the way the lift reads its coefficients off M0's grid."""
    (A, B, C), trunc = decoded(case)
    grid = series_grid([[A, B, C]])
    coeffs = [minor_ints(grid, [0], [k]) for k in range(3)]
    quad = quad_ints(*coeffs, grid.exp_den, grid.radicand, trunc)
    assert quad.sign > 0
    got = [lattice_series(quad.numerator(b), quad.exp_den, quad.trunc) for b in (1, -1)]
    got.append(lattice_series(quad.two_a, quad.exp_den, quad.two_a_trunc))
    got = tuple((s.terms, s.trunc) for s in got) + (quad.sign,)
    assert got == outcome(quad_numerators, A, B, C, trunc)
    assert got == outcome(ref_quad_numerators, A, B, C, trunc)


@pytest.mark.parametrize(
    "case", PINNED, ids=[f"{c['fn']}-{k:03d}" for k, c in enumerate(PINNED)]
)
def test_pinned_call_reproduces_its_digest_and_the_reference(case):
    got = call(case["fn"], case["series"], case["trunc"])
    assert result_digest(got) == case["result_digest"]
    fn, ref = REFERENCES[case["fn"]]
    args, trunc = decoded(case)
    want = outcome(ref, *args, trunc)
    assert want is not TailPastOrder
    assert outcome(fn, *args, trunc) == want
