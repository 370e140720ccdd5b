"""Regenerate data/lift_solve_pool.json, the inputs of the lift-solve workload.

    python3 perfbench/make_pool.py

Candidates are 4x4 matrices with entries in 0..4 from the benchmark's own
seeded generator (inputs.singular_candidate, seed POOL_SEED).  Whether a
candidate's tie supports an exact lift is a verdict only the program can
give, so this script asks troplift once and keeps a candidate for a
request when:
  * the membership verdict for the request is true;
  * for sym_corank1, the verdict is not a boundary (closure) point;
  * troplift lift and troplift verify both exit 0;
  * the certificate passes the benchmark's own checks.
Each kept input also records its work: the Fractions its round trip
constructs, a count that repeats exactly.  A run draws one input from each
block of the work-sorted pool, so every seed gets the same spread of cheap
and heavy inputs.  The run never calls this script: lift-solve reads the
stored pool, so a change to the program cannot change which inputs the
workload runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import inputs  # noqa: E402

POOL_SEED = 2024
PER_REQUEST = 120
N = 4


def work_of(cli, membership, tracer, tmp, matrix, variety, mode):
    """Fractions created by the round trip, or None when the candidate is
    not kept."""
    from troplift.tropmat import TropMatrix

    symmetric = variety.startswith("sym")
    a = TropMatrix.make(matrix, symmetric=symmetric)
    verdict = getattr(membership, "member_" + variety)(a, mode)
    if not verdict.verdict or verdict.reason.get("boundary"):
        return None
    src, cert, out = (os.path.join(tmp, f) for f in ("in.json", "cert.json", "out.json"))
    with open(src, "w") as fh:
        json.dump({"symmetric": symmetric, "entries": inputs.encode_matrix(matrix)}, fh)
    before = tracer.counts["fractions.created"]
    with contextlib.redirect_stderr(io.StringIO()):
        args = ["--variety", variety, "--mode", mode, "--seed", "1", "--in", src, "--out", cert]
        if cli.main(["lift"] + args) != 0:
            return None
        if cli.main(["verify", "--in", cert, "--out", out]) != 0:
            return None
    work = tracer.counts["fractions.created"] - before
    with open(cert) as fh:
        return None if checks.check_certificate(fh.read(), variety, mode, matrix) else work


def main() -> int:
    from troplift import cli, membership
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()

    rng = inputs.workload_rng("lift-solve-pool", POOL_SEED)
    pool = {f"{v}/{m}": [] for v, m in inputs.LIFT_SOLVE_PLAN}
    tried = 0
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        while any(len(rows) < PER_REQUEST for rows in pool.values()):
            for variety, mode in inputs.LIFT_SOLVE_PLAN:
                rows = pool[f"{variety}/{mode}"]
                if len(rows) >= PER_REQUEST:
                    continue
                matrix = inputs.singular_candidate(rng, N, variety.startswith("sym"))
                tried += 1
                enc = inputs.encode_matrix(matrix)
                if any(r["matrix"] == enc for r in rows):
                    continue
                work = work_of(cli, membership, tracer, tmp, matrix, variety, mode)
                if work is not None:
                    rows.append({"matrix": enc, "work": work})
    for rows in pool.values():
        rows.sort(key=lambda r: (r["work"], r["matrix"]))
    header = {
        "candidates_tried": tried,
        "generator": "inputs.singular_candidate",
        "pool_seed": POOL_SEED,
        "regenerate": "python3 perfbench/make_pool.py",
    }
    with open(inputs.POOL_FILE, "w") as fh:  # one input per line
        fh.write(json.dumps(header)[:-1] + ',\n "pool": {')
        for k, (request, rows) in enumerate(pool.items()):
            fh.write(("," if k else "") + f"\n  {json.dumps(request)}: [\n   ")
            fh.write(",\n   ".join(json.dumps(r, sort_keys=True) for r in rows))
            fh.write("\n  ]")
        fh.write("\n }\n}\n")
    print(f"kept {sum(map(len, pool.values()))} of {tried} candidates")
    return 0


if __name__ == "__main__":
    sys.exit(main())
