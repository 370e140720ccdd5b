"""Golden CLI table: every recorded invocation on the bundled matrix
fixtures reproduces its exit code, stdout digest and stderr (regenerated
by tests/golden/make_golden_cli.py)."""

import json
from pathlib import Path

import pytest

from golden.make_golden_cli import CASES, cli_rows

TABLE = json.loads((Path(__file__).parent / "golden" / "cli" / "table.json").read_text())


def test_table_covers_every_matrix_fixture():
    assert sorted(TABLE) == sorted(CASES)


@pytest.mark.parametrize("name", CASES)
def test_cli_reproduces_golden_table(name, tmp_path):
    got = cli_rows(str(tmp_path), name)
    want = TABLE[name]
    changed = [
        (" ".join(w["args"]), w["exit"], g["exit"], g["stderr"])
        for w, g in zip(want, got)
        if w != g
    ]
    assert not changed
    assert [r["args"] for r in got] == [r["args"] for r in want]
