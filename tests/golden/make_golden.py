"""Regenerate the golden lift certificates in this directory.

    PYTHONPATH=src python tests/golden/make_golden.py

Cases are every bundled matrix fixture crossed with every variety and the
modes R and R+ (C and C+ run the same constructions as R and R+), plus
seeded instances from tests/samples.py: exact rank claims, exact
corank-one solves and symmetric corank-one solves with a square-root
coefficient.  A case is kept when `troplift lift` exits 0 on it.  The
manifest cases.json records each kept case's input, variety and mode;
<name>.json holds the bytes `troplift lift` wrote.  tests/test_golden.py
reruns every case and compares bytes.

Rerun this only for a deliberate change of the certificate format, and
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

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))
sys.path.insert(0, os.path.join(HERE, ".."))

import samples  # noqa: E402
from troplift import cli, jsonio  # noqa: E402
from troplift.fixtures import FIXTURE_NAMES, fixture  # noqa: E402
from troplift.tropmat import TropMatrix, trop_mat_mul  # noqa: E402

VARIETIES = ("rank2", "sym_rank2", "corank1", "sym_corank1")
MODES = ("R", "R+")


def lift_bytes(workdir: str, matrix: dict, variety: str, mode: str) -> bytes | None:
    """What `troplift lift` writes for this input, or None when it exits nonzero."""
    src = os.path.join(workdir, "in.json")
    out = os.path.join(workdir, "out.json")
    with open(src, "w") as fh:
        json.dump(matrix, fh)
    if os.path.exists(out):
        os.remove(out)
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["lift", "--in", src, "--variety", variety, "--mode", mode, "--out", out])
    if code != 0:
        return None
    with open(out, "rb") as fh:
        return fh.read()


def case_name(prefix: str, variety: str, mode: str) -> str:
    return f"{prefix}-{variety}-{mode.replace('+', 'plus')}"


def _mirror(rng, n) -> TropMatrix:
    m = TropMatrix.make([[rng.randint(-3, 3) for _ in range(2)] for _ in range(n)])
    return TropMatrix.make(trop_mat_mul(m, m.transpose()).entries, symmetric=True)


def _has_radicand(cert: dict) -> bool:
    return any(
        isinstance(term["coef"], dict) for row in cert["lift"] for e in row for term in e["terms"]
    )


def _method(name):
    return lambda cert: cert["method"] == name


# (variety, mode, draw(rng), count, extra filter on the certificate)
SAMPLE_KINDS = (
    ("rank2", "R",
     lambda r: samples.random_rank2_matrix(r, r.randint(3, 5), r.randint(4, 5)),
     4, _method("frame_completion")),
    ("rank2", "R+",
     lambda r: samples.random_barvinok2_matrix(r, r.randint(3, 4), r.randint(3, 5)),
     3, None),
    ("sym_rank2", "R",
     lambda r: samples.random_sym_rank2_matrix(r, r.randint(4, 5)),
     4, _method("mirrored_generators")),
    ("sym_rank2", "R", lambda r: samples.random_sym_rank2_matrix(r, r.randint(3, 5)), 2, None),
    ("sym_rank2", "R+", lambda r: _mirror(r, r.randint(3, 5)), 3, None),
    ("corank1", "R+", lambda r: samples.random_matrix(r, 4, 4, 0, 3), 2, None),
    ("corank1", "R", lambda r: samples.random_matrix(r, 3, 3, 0, 3), 1, None),
    ("sym_corank1", "R", lambda r: samples.random_sym_matrix(r, 4, 0, 3), 2, _has_radicand),
    ("sym_corank1", "R+", lambda r: samples.random_sym_matrix(r, 4, 0, 3), 2, None),
)


def generate():
    """Yield (case, certificate bytes) for every golden case."""
    with tempfile.TemporaryDirectory() as work:
        for name in FIXTURE_NAMES:
            if name == "table2":
                continue  # a table of monomial classes, not a matrix
            matrix = jsonio.encode_matrix(fixture(name))
            for variety in VARIETIES:
                for mode in MODES:
                    cert = lift_bytes(work, matrix, variety, mode)
                    if cert is not None:
                        case = {"name": case_name(name, variety, mode), "variety": variety,
                                "mode": mode, "input": matrix}
                        yield case, cert
        for k, (variety, mode, draw, count, keep) in enumerate(SAMPLE_KINDS):
            rng = random.Random(1000 + k)
            kept = 0
            for _ in range(500):
                if kept == count:
                    break
                matrix = jsonio.encode_matrix(draw(rng))
                cert = lift_bytes(work, matrix, variety, mode)
                if cert is None or (keep is not None and not keep(json.loads(cert))):
                    continue
                case = {"name": case_name(f"sample{k}{kept}", variety, mode),
                        "variety": variety, "mode": mode, "input": matrix}
                kept += 1
                yield case, cert
            if kept < count:
                raise RuntimeError(f"only {kept} of {count} {variety} {mode} samples lift")


def main():
    for key in [k for k in os.environ if k.startswith("TROPLIFT_")]:
        del os.environ[key]
    for old in os.listdir(HERE):
        if old.endswith(".json"):
            os.remove(os.path.join(HERE, old))
    cases = []
    for case, cert in generate():
        with open(os.path.join(HERE, case["name"] + ".json"), "wb") as fh:
            fh.write(cert)
        cases.append(case)
        print(case["name"], len(cert))
    with open(os.path.join(HERE, "cases.json"), "w") as fh:
        json.dump(cases, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
