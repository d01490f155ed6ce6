#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 [...]

Run from anywhere inside a checkout of the repository; the build and the run
happen at the checkout's root.  Extra arguments (--seed-trace, --seed-jitter,
--seed-arrival, --seed-ir, --inject) pass through to the benchmark
executable.  The last line of standard output is the result JSON.
Any build failure, failed check or malformed result exits non-zero without
printing a result.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
OUT_DIR = ".perfbench-out"
WORKLOADS = ("spec_pipeline", "lockstep_dense", "cluster_wire", "serve_mixed")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 2


def valid_result(line, trace):
    try:
        res = json.loads(line)
    except ValueError:
        return False
    if not isinstance(res, dict) or set(res) != {"correct", "attempted", "failed", "metrics"}:
        return False
    metrics = res["metrics"]
    return (
        res["correct"] is True
        and isinstance(res["attempted"], int)
        and res["attempted"] >= 1
        and isinstance(res["failed"], int)
        and isinstance(metrics, dict)
        and len(metrics) > 0
        and all(set(m) == {"value", "unit"} for m in metrics.values())
        and (trace or all(m["value"] != 0 for m in metrics.values()))
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = ap.parse_known_args()

    os.chdir(ROOT)
    if not (Path("dune-project").is_file() and Path("lib").is_dir()):
        return fail("no dune-project and lib/ at %s: run inside a checkout of the repository" % ROOT)
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        return fail("build failed: %s" % e)
    if build.returncode != 0:
        return fail("build failed (dune exit %d)" % build.returncode)

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd += ["--spans-out", os.path.join(OUT_DIR, "spans-%s-seed%d.tsv" % (args.workload, args.seed))]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.splitlines()
    last = lines[-1] if lines else ""
    ok = run.returncode == 0 and valid_result(last, args.trace)
    body = lines[:-1] if ok else [l for l in lines if not l.startswith("{")]
    if body:
        print("\n".join(body))
    if not ok:
        return fail("benchmark failed (exit %d)" % run.returncode)
    print(last, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
