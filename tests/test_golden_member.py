"""Golden membership payloads: `troplift member` reproduces, for every
variety and mode, the exit code and the bytes stored in tests/golden/member
(regenerated by tests/golden/make_golden_member.py)."""

import json
from pathlib import Path

import pytest

from golden.make_golden_member import member_transcript

GOLDEN = Path(__file__).parent / "golden" / "member"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_member_reproduces_golden_bytes(case, tmp_path):
    want = (GOLDEN / f"{case['name']}.txt").read_bytes()
    assert member_transcript(str(tmp_path), case["input"]) == want
