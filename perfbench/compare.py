#!/usr/bin/env python3
"""Repeat runs of the benchmark, their spread, and regression checks.

    python3 perfbench/compare.py sweep DIR [--workloads W,...] [--seeds 1-10]
        [--seconds S] [-- EXTRA...]
        Run every workload once per seed (untraced) and append each result
        line to DIR/<workload>.jsonl, then print the spread.
    python3 perfbench/compare.py spread DIR
        Per workload and end-to-end metric: median, quartiles, and the
        interquartile range as a share of the median against the metric's
        bound (statistics.quantiles(values, n=4)).
    python3 perfbench/compare.py diff BASE NEW
        Flag every (workload, metric) whose NEW median is worse than the
        BASE median by more than the metric's bound in BENCHMARK.json.
    python3 perfbench/compare.py selftest DIR [--seeds 1-3] [--seconds S]
        Show the bounds can fail: rerun lockstep_dense with every
        `program` call in set-up stretched just past setup_s's bound, and
        require the diff to flag (lockstep_dense, setup_s) and nothing else.

Run from the root of a checkout.  EXTRA arguments go to run.py.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

SPEC = json.loads(Path("BENCHMARK.json").read_text())
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def load(directory):
    runs = {}
    for w in WORKLOADS:
        f = Path(directory) / (w + ".jsonl")
        if f.exists():
            runs[w] = [json.loads(l) for l in f.read_text().splitlines() if l.strip()]
    return runs


def medians(runs):
    return {
        (w, name): statistics.median(r["metrics"][name]["value"] for r in rs)
        for w, rs in runs.items()
        for name in E2E
    }


def spread(directory):
    print("%-15s %-18s %5s %14s %14s %14s %8s %8s" % (
        "workload", "metric", "runs", "q1", "median", "q3", "iqr/med", "bound/3"))
    worst = True
    for w, rs in load(directory).items():
        for name, m in E2E.items():
            vals = [r["metrics"][name]["value"] for r in rs]
            if len(vals) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / q2
            ok = share < m["bound"] / 3
            worst = worst and ok
            print("%-15s %-18s %5d %14.6g %14.6g %14.6g %7.1f%% %7.1f%% %s" % (
                w, name, len(vals), q1, q2, q3, 100 * share, 100 * m["bound"] / 3,
                "" if ok else "WIDE"))
    return worst


def diff(base, new):
    a, b = medians(load(base)), medians(load(new))
    flagged = []
    for key in sorted(set(a) & set(b)):
        m = E2E[key[1]]
        change = b[key] / a[key] - 1
        worse = change if m["better"] == "lower" else -change
        if worse > m["bound"]:
            flagged.append(key)
        print("%-15s %-18s %14.6g -> %-14.6g %+7.1f%% (bound %.0f%%) %s" % (
            key[0], key[1], a[key], b[key], 100 * change, 100 * m["bound"],
            "REGRESSION" if key in flagged else ""))
    return flagged


def sweep(directory, workloads, seeds, seconds, extra):
    Path(directory).mkdir(parents=True, exist_ok=True)
    for seed in seeds:
        for w in workloads:
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"] + extra,
                stdout=subprocess.PIPE, text=True, check=True).stdout
            with open(Path(directory) / (w + ".jsonl"), "a") as f:
                f.write(out.splitlines()[-1] + "\n")
            print("%s seed %d done" % (w, seed), flush=True)


def main(argv):
    extra = argv[argv.index("--") + 1:] if "--" in argv else []
    argv = argv[:argv.index("--")] if "--" in argv else argv
    opts = dict(zip(argv[2::2], argv[3::2]))
    seconds = float(opts.get("--seconds", SPEC["run_seconds"]))
    if argv[0] == "sweep":
        workloads = opts.get("--workloads", ",".join(WORKLOADS)).split(",")
        sweep(argv[1], workloads, parse_seeds(opts.get("--seeds", "1-10")), seconds, extra)
        return 0 if spread(argv[1]) else 1
    if argv[0] == "spread":
        return 0 if spread(argv[1]) else 1
    if argv[0] == "diff":
        return 1 if diff(argv[1], argv[2]) else 0
    if argv[0] == "selftest":
        bound = E2E["setup_s"]["bound"]
        seeds = parse_seeds(opts.get("--seeds", "1-3"))
        base, slow = Path(argv[1]) / "base", Path(argv[1]) / "slow"
        sweep(base, ["lockstep_dense"], seeds, seconds, [])
        sweep(slow, ["lockstep_dense"], seeds, seconds, ["--inject", "program:%g" % (1.5 * bound)])
        flagged = diff(base, slow)
        ok = flagged == [("lockstep_dense", "setup_s")]
        print("self-test %s: flagged %s" % ("passed" if ok else "FAILED", flagged))
        return 0 if ok else 1
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]) if len(sys.argv) > 1 else main(["help"]))
