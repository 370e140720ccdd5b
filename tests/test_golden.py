"""Golden certificates: `troplift lift` and `troplift verify` reproduce the
bytes stored in tests/golden (regenerated by tests/golden/make_golden.py)."""

import json
from pathlib import Path

import pytest

from golden.make_golden import lift_bytes
from troplift.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_lift_reproduces_golden_bytes(case, tmp_path):
    want = (GOLDEN / f"{case['name']}.json").read_bytes()
    got = lift_bytes(str(tmp_path), case["input"], case["variety"], case["mode"])
    assert got == want


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_verify_reproduces_golden_transcript(case, tmp_path):
    src = GOLDEN / f"{case['name']}.json"
    out = tmp_path / "verified.json"
    assert main(["verify", "--in", str(src), "--out", str(out)]) == 0
    want = json.loads(src.read_text())
    assert out.read_text() == json.dumps(want, indent=2, sort_keys=True) + "\n"
