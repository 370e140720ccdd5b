"""Regenerate the golden membership payloads in tests/golden/member.

    PYTHONPATH=src python tests/golden/make_golden_member.py

Cases are every square bundled matrix fixture and 40 seeded symmetric 5x5
matrices whose symmetric tropical determinant has a large class tie: 20
generic ones with small integer entries (ties of 4 to 12 classes) and 20
symmetric tropical rank-2 ones from tests/samples.py (ties of 11 to 21
classes, half-integer entries; wider ties make payloads of several hundred
kilobytes).  Each case runs `troplift member` for the four varieties in the
four modes.  The manifest member/cases.json records
every case's input; member/<name>.txt holds, for each variety and mode, a
header line with the exit code and then the bytes `troplift member` wrote.
tests/test_golden_member.py reruns every case and compares bytes.

Rerun this only for a deliberate change of the membership payload, and
say so in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import tempfile

HERE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "member")
sys.path.insert(0, os.path.join(HERE, "..", "..", "..", "src"))
sys.path.insert(0, os.path.join(HERE, "..", ".."))

import samples  # noqa: E402
from troplift import cli, jsonio  # noqa: E402
from troplift.fixtures import FIXTURE_NAMES, fixture  # noqa: E402
from troplift.tropical import sym_trop_det  # noqa: E402
from troplift.tropmat import TropMatrix  # noqa: E402

VARIETIES = ("rank2", "sym_rank2", "corank1", "sym_corank1")
MODES = ("C", "R", "C+", "R+")

# (name prefix, draw(rng), count, tie sizes kept)
SAMPLE_KINDS = (
    ("generic", lambda r: samples.random_sym_matrix(r, 5, 0, 2), 20, range(4, 13)),
    ("symrank2", lambda r: samples.random_sym_rank2_matrix(r, 5), 20, range(11, 22)),
)


def member_transcript(workdir: str, matrix: dict) -> bytes:
    """Exit code and output of `troplift member` for every variety and mode."""
    src = os.path.join(workdir, "in.json")
    out = os.path.join(workdir, "out.json")
    with open(src, "w") as fh:
        json.dump(matrix, fh)
    chunks = []
    for variety in VARIETIES:
        for mode in MODES:
            if os.path.exists(out):
                os.remove(out)
            with contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(
                    ["member", "--in", src, "--variety", variety, "--mode", mode, "--out", out]
                )
            chunks.append(f"== {variety} {mode}: exit {code}\n".encode())
            if os.path.exists(out):
                with open(out, "rb") as fh:
                    chunks.append(fh.read())
    return b"".join(chunks)


def cases():
    """Yield (name, encoded matrix) for every golden membership case."""
    for name in FIXTURE_NAMES:
        obj = fixture(name)
        if isinstance(obj, TropMatrix) and obj.is_square():
            yield name, jsonio.encode_matrix(obj)
    for k, (prefix, draw, count, ties) in enumerate(SAMPLE_KINDS):
        rng = random.Random(2000 + k)
        kept = 0
        for _ in range(2000):
            if kept == count:
                break
            a = draw(rng)
            if len(sym_trop_det(a).argmin) not in ties:
                continue
            yield f"{prefix}{kept:02d}", jsonio.encode_matrix(a)
            kept += 1
        if kept < count:
            raise RuntimeError(f"only {kept} of {count} {prefix} matrices tie widely enough")


def main():
    for key in [k for k in os.environ if k.startswith("TROPLIFT_")]:
        del os.environ[key]
    os.makedirs(HERE, exist_ok=True)
    for old in os.listdir(HERE):
        if old.endswith((".json", ".txt")):
            os.remove(os.path.join(HERE, old))
    manifest = []
    with tempfile.TemporaryDirectory() as work:
        for name, matrix in cases():
            data = member_transcript(work, matrix)
            with open(os.path.join(HERE, name + ".txt"), "wb") as fh:
                fh.write(data)
            manifest.append({"name": name, "input": matrix})
            print(name, len(data))
    with open(os.path.join(HERE, "cases.json"), "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
