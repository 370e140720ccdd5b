"""Regenerate the golden CLI exit-code table in cli/table.json.

    PYTHONPATH=src python tests/golden/make_golden_cli.py

For each bundled matrix fixture the table records, at the default
enumeration bound, `trop-det`, `rank`, `tree` (json and dot), `member` and
`lift` for every variety and mode, and `verify` of every certificate a
lift writes; and `lift` for every variety and mode at `--max-n 3`.  A row
holds the arguments (IN names the fixture file, CERT the certificate the
row before wrote), the exit code, the sha256 of stdout and the full
stderr.  tests/test_golden_cli.py replays every row.

Rerun this only for a deliberate change of CLI behaviour, and list the
rows that changed in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli")
sys.path.insert(0, os.path.join(HERE, "..", "..", "..", "src"))

from troplift import cli  # noqa: E402
from troplift.fixtures import FIXTURE_NAMES, fixture_json  # noqa: E402

VARIETIES = ("rank2", "sym_rank2", "corank1", "sym_corank1")
MODES = ("C", "R", "C+", "R+")
CASES = tuple(name for name in FIXTURE_NAMES if name != "table2")


def _run(args: list, files: dict) -> tuple[dict, str]:
    """The table row of one invocation, and its stdout."""
    argv = [files.get(a, a) for a in args]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return {"args": args, "exit": code, "stdout": digest, "stderr": err.getvalue()}, out.getvalue()


def cli_rows(workdir: str, name: str) -> list:
    """Every recorded invocation on one fixture, in table order."""
    files = {"IN": os.path.join(workdir, "in.json"), "CERT": os.path.join(workdir, "cert.json")}
    with open(files["IN"], "w") as fh:
        json.dump(fixture_json(name), fh)
    rows = [
        _run(args, files)[0]
        for args in (
            ["trop-det", "--in", "IN"],
            ["rank", "--in", "IN"],
            ["tree", "--in", "IN"],
            ["tree", "--in", "IN", "--format", "dot"],
        )
    ]
    for cmd in ("member", "lift"):
        for variety in VARIETIES:
            for mode in MODES:
                row, out = _run([cmd, "--in", "IN", "--variety", variety, "--mode", mode], files)
                rows.append(row)
                if cmd == "lift" and out:
                    with open(files["CERT"], "w") as fh:
                        fh.write(out)
                    rows.append(_run(["verify", "--in", "CERT"], files)[0])
    for variety in VARIETIES:
        for mode in MODES:
            args = ["lift", "--in", "IN", "--variety", variety, "--mode", mode, "--max-n", "3"]
            rows.append(_run(args, files)[0])
    return rows


def main():
    for key in [k for k in os.environ if k.startswith("TROPLIFT_")]:
        del os.environ[key]
    os.makedirs(HERE, exist_ok=True)
    table = {}
    with tempfile.TemporaryDirectory() as work:
        for name in CASES:
            table[name] = cli_rows(work, name)
            print(name, len(table[name]))
    with open(os.path.join(HERE, "table.json"), "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
