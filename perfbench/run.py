"""Benchmark of deciding and lifting with troplift.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 20 --trace 0

Workloads (one per process, one caller, closed loop):
  decide      16 member_* calls (four sets, four modes) per 5x5 symmetric matrix
  lift-exact  troplift lift + verify for rank2 / sym_rank2 in R and R+
  lift-solve  troplift lift + verify for corank1 R+ and sym_corank1 R, R+

The input list is drawn from --seed before the program is imported; a
run's length is a count of operations fixed by the workload and --seconds,
not a time box.  --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer metrics of a separately traced run.  The last line of standard
output is one JSON object with correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import inputs  # noqa: E402
from tracing import PER_LAYER  # noqa: E402

# operations per second of --seconds: sets the run's operation count,
# about one --seconds of work on a 2-core x86 host at the seed commit
NOMINAL_RATE = {"decide": 20.0, "lift-exact": 9.5, "lift-solve": 3.6}
MIN_OPS = 100  # so that ten samples lie beyond the 90th percentile
SETUP_REPEATS = 5
RUN_LIMIT_S = 170
# Host speed.  A shared host's speed can swing by 2x within seconds and
# stay slow or fast for minutes.  worker.reference_kernel, which runs
# no troplift code, is timed before and after every operation.  An
# operation's time is multiplied by (REFERENCE_MS / k) ** HOST_EXPONENT,
# k the median kernel time over the operation's neighbourhood of
# 2 * KERNEL_WINDOW kernel runs: the time it would take on a host where the
# kernel takes REFERENCE_MS.  Across the host's slow and fast states the
# program's times moved as the kernel's to the power 1.35 (decide), 1.18
# (lift-exact) and 1.24 (lift-solve), over ten runs of each.
REFERENCE_MS = 0.8
HOST_EXPONENT = 1.25
KERNEL_WINDOW = 5

END_TO_END = (
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def op_count(workload: str, seconds: int) -> int:
    """Operations in a run: a whole number of rounds of the request mix."""
    mix = inputs.WORKLOADS[workload][1]
    count = max(MIN_OPS, round(seconds * NOMINAL_RATE[workload]))
    return -(-count // mix) * mix


def host_factor(kernel_ms: float) -> float:
    return (REFERENCE_MS / kernel_ms) ** HOST_EXPONENT


def scaled_latencies(latencies, kernels) -> list:
    """Operation times at the reference host speed; kernels[k] and
    kernels[k + 1] bracket operation k."""
    out = []
    for k, t in enumerate(latencies):
        near = kernels[max(0, k + 1 - KERNEL_WINDOW):k + 1 + KERNEL_WINDOW]
        out.append(t * host_factor(statistics.median(near)))
    return out


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("TROPLIFT_")}
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    return env


def run_worker(args: list, deadline: float) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")] + args,
        stdout=subprocess.PIPE,
        env=worker_env(),
        timeout=max(1.0, deadline - time.monotonic()),
        text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    draw, _ = inputs.WORKLOADS[args.workload]
    items = draw(args.seed, op_count(args.workload, args.seconds))
    digest = inputs.digest(items)
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    try:
        input_file = os.path.join(work, "inputs.json")
        with open(input_file, "w") as fh:
            json.dump([dict(it, matrix=inputs.encode_matrix(it["matrix"])) for it in items], fh)
        base = ["--workload", args.workload, "--inputs", input_file, "--work", work]
        setups = [run_worker(base + ["--setup-only"], deadline) for _ in range(SETUP_REPEATS - 1)]
        if args.trace:
            base += ["--trace", "1", "--trace-file", os.path.join(OUT, f"trace-{tag}.jsonl")]
        report = run_worker(base, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(report)

    raw = report["latencies_ms"]
    kernels = report["kernel_ms"]
    lat = scaled_latencies(raw, kernels)
    if args.trace:
        factor = {"ms": host_factor(statistics.median(kernels))}
        layers = {name: report["per_layer"][name] * factor.get(unit, 1) for name, unit in PER_LAYER}
        layers["monomials.class_fill_ms"] *= host_factor(report["setup_kernel_ms"]) / factor["ms"]
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        values = {
            "latency_p50_ms": statistics.median(lat),
            "latency_p90_ms": p90(lat),
            "throughput_ops_per_s": len(lat) * 1000 / sum(lat),
            "peak_rss_mb": report["peak_rss_mb"],
            "setup_s": statistics.median(
                r["setup_s"] * host_factor(r["setup_kernel_ms"]) for r in setups
            ),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    unscaled = {
        "latency_p50_ms": statistics.median(raw),
        "latency_p90_ms": p90(raw),
        "throughput_ops_per_s": len(raw) * 1000 / sum(raw),
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "kernel_p50_ms": statistics.median(kernels),
    }
    problems = report["problems"]
    result = {
        "correct": not problems,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    print(f"workload {args.workload} seed {args.seed} operations {len(raw)} trace {args.trace}")
    print(f"input digest sha256:{digest}")
    for p in problems[:20]:
        print(f"check failed: {p}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print("unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in unscaled.items()))
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump(
            dict(result, digest=digest, unscaled=unscaled, problems=problems,
                 latencies_ms=raw, kernel_ms=kernels),
            fh,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
