"""Golden series calls: every `ps_inv`, `ps_sqrt` and `quad_roots` call the
criterion-5 property suite makes returns the result whose digest is stored
in tests/golden/series (regenerated by tests/golden/make_golden_series.py)."""

import json
from pathlib import Path

import pytest

from golden.make_golden_series import call, result_digest

CALLS = json.loads((Path(__file__).parent / "golden" / "series" / "calls.json").read_text())


@pytest.mark.parametrize(
    "case", CALLS, ids=[f"{c['fn']}-{k:03d}" for k, c in enumerate(CALLS)]
)
def test_series_call_reproduces_golden_digest(case):
    got = call(case["fn"], case["series"], case["trunc"])
    assert result_digest(got) == case["result_digest"]
