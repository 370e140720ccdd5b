"""One workload process: set up, run the timed phase, check the outputs.

Started by run.py with the input list already written to a file.  The
process imports troplift from the checkout's src directory only, so in a
tree without the program it fails instead of measuring something else.
The last line of its standard output is a JSON report for run.py.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from math import gcd  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs as inputs_mod  # noqa: E402

CLASS_FILL_N = 5
LIFT_SEED = "1"
REPEAT_CHECKS = 3
KERNEL_STEPS = 250
SETUP_KERNELS = 5


def reference_kernel() -> int:
    """Fixed work that touches no troplift code, timed between operations
    to follow the host's speed: exact rational sums on int pairs, a
    tuple-keyed dict and a sort."""
    num, den, table = 0, 1, {}
    for i in range(1, KERNEL_STEPS):
        num, den = num * 7 * (i + 1) + 3 * i * den, den * 7 * (i + 1)
        g = gcd(num, den)
        num, den = num // g, den // g
        table[(i % 7, i)] = (num, den)
    return len(sorted(table))


def kernel_ms() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return (time.perf_counter() - t0) * 1000


def import_program():
    """Import troplift from the checkout, with no TROPLIFT_* setting in force."""
    for key in [k for k in os.environ if k.startswith("TROPLIFT_")]:
        del os.environ[key]
    sys.path.insert(0, SRC)
    import troplift
    from troplift import cli, membership, monomials, tropmat  # noqa: F401

    if os.path.dirname(os.path.abspath(troplift.__file__)) != os.path.join(SRC, "troplift"):
        raise SystemExit(f"troplift imported from {troplift.__file__}, not from {SRC}")


class Decide:
    """16 membership calls per symmetric matrix; output: the verdict table."""

    def __init__(self, items, work):
        from troplift.tropmat import TropMatrix

        self.items = items
        self.mats = [TropMatrix.make(it["matrix"], symmetric=True) for it in items]

    def op(self, k):
        from troplift import membership

        a = self.mats[k]
        table = {}
        for v in checks.VARIETIES:
            fn = getattr(membership, "member_" + v)
            table[v] = {m: fn(a, m).verdict for m in checks.MODES}
        return table

    @staticmethod
    def succeeded(out) -> bool:
        return True

    def check(self, outputs):
        from troplift import membership
        from troplift.tropmat import TropMatrix

        problems = []
        for k, table in outputs.items():
            item = self.items[k]
            for p in checks.check_verdicts(item["matrix"], table, item["kind"]):
                problems.append(f"input {k}: {p}")
        ex52 = TropMatrix.make(checks.EX52, symmetric=True)
        if not membership.member_sym_corank1(ex52, "C+").verdict:
            problems.append("ex52 is not in the symmetric singular positive part over C")
        if membership.member_sym_corank1(ex52, "R+").verdict:
            problems.append("ex52 is reported in the symmetric singular positive part over R")
        return problems

    def layer_extra(self, outputs, attempts):
        return {"jsonio.cert_bytes": 0}


class LiftRoundTrip:
    """troplift lift then troplift verify through cli.main, files in a
    work directory; output: the two exit codes."""

    def __init__(self, items, work):
        self.items = items
        self.work = work
        for k, it in enumerate(items):
            doc = {
                "symmetric": it["variety"].startswith("sym"),
                "entries": inputs_mod.encode_matrix(it["matrix"]),
            }
            with open(self.path(k, "in"), "w") as fh:
                json.dump(doc, fh)

    def path(self, k, what):
        return os.path.join(self.work, f"{k:04d}.{what}.json")

    def lift(self, k, out):
        from troplift import cli

        it = self.items[k]
        return cli.main([
            "lift", "--variety", it["variety"], "--mode", it["mode"],
            "--seed", LIFT_SEED, "--in", self.path(k, "in"), "--out", out,
        ])

    def op(self, k):
        from troplift import cli

        rc_lift = self.lift(k, self.path(k, "cert"))
        if rc_lift != 0:
            return rc_lift, None
        rc_verify = cli.main(["verify", "--in", self.path(k, "cert"), "--out", self.path(k, "verified")])
        return rc_lift, rc_verify

    @staticmethod
    def succeeded(out) -> bool:
        return out == (0, 0)

    def check(self, outputs):
        problems = []
        for k, (rc_lift, rc_verify) in outputs.items():
            it = self.items[k]
            with open(self.path(k, "cert")) as fh:
                raw = fh.read()
            for p in checks.check_certificate(raw, it["variety"], it["mode"], it["matrix"]):
                problems.append(f"input {k}: {p}")
        for k in sorted(outputs)[:REPEAT_CHECKS]:
            again = self.path(k, "again")
            rc = self.lift(k, again)
            with open(self.path(k, "cert"), "rb") as fa, open(again, "rb") as fb:
                if rc != 0 or fa.read() != fb.read():
                    problems.append(f"input {k}: a second lift gives other bytes")
        return problems

    def layer_extra(self, outputs, attempts):
        sizes = [os.path.getsize(self.path(k, "cert")) for k in outputs]
        return {
            "jsonio.cert_bytes": sum(sizes) / max(1, len(sizes)),
            "certificates_from_attempts": sum(1 for k in outputs if attempts[k] > 0),
        }


WORKLOADS = {"decide": Decide, "lift-exact": LiftRoundTrip, "lift-solve": LiftRoundTrip}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--trace-file", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import_program()
    from troplift import monomials

    with open(args.inputs) as fh:
        items = json.load(fh)
    for it in items:
        it["matrix"] = inputs_mod.decode_matrix(it["matrix"])
    fill_start = time.perf_counter()
    for n in range(1, CLASS_FILL_N + 1):
        monomials._classes(n, True)
    class_fill_ms = (time.perf_counter() - fill_start) * 1000
    runner = WORKLOADS[args.workload](items, args.work)
    setup = {
        "setup_s": time.perf_counter() - T_START,
        "setup_kernel_ms": sorted(kernel_ms() for _ in range(SETUP_KERNELS))[SETUP_KERNELS // 2],
    }
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    gc.collect()

    outputs, latencies, attempts, failed = {}, [], {}, 0
    kernels = [kernel_ms()]  # kernels[k] and kernels[k + 1] bracket operation k
    for k in range(len(items)):
        before = tracer.counts["lifts.seeded_attempts"] if tracer else 0
        t0 = time.perf_counter()
        try:
            out = tracer.run_op(k, runner.op, k) if tracer else runner.op(k)
        except Exception:  # an operation that raises counts as failed
            traceback.print_exc()
            out = None
        latencies.append((time.perf_counter() - t0) * 1000)
        kernels.append(kernel_ms())
        if tracer:
            attempts[k] = tracer.counts["lifts.seeded_attempts"] - before
        if out is None or not runner.succeeded(out):
            failed += 1
            print(f"operation {k} failed: {out}", file=sys.stderr)
        else:
            outputs[k] = out
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    report = dict(
        setup,
        latencies_ms=latencies,
        kernel_ms=kernels,
        peak_rss_mb=peak_rss_mb,
        attempted=len(items),
        failed=failed,
    )
    if tracer:
        extra = runner.layer_extra(outputs, attempts)
        extra["monomials.class_fill_ms"] = class_fill_ms
        report["per_layer"] = tracer.layer_metrics(len(items), extra)
        timed_spans = len(tracer.spans)
    report["problems"] = runner.check(outputs)
    if tracer and args.trace_file:
        del tracer.spans[timed_spans:]
        tracer.write(args.trace_file)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
