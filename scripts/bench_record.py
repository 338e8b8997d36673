#!/usr/bin/env python3
"""Record a before/after perfbench comparison as data.

Runs perfbench/run.py in two checkouts (a parent and a change) for
each listed workload and seed, alternating which side runs first
from one seed to the next, and writes BENCH_<label>.json with every
run's end-to-end metrics, the per-side medians and the change's
median ratio to the parent.

Usage (from the root of the change's checkout):

    git archive <parent-rev> | tar -x -C /tmp/parent
    python3 scripts/bench_record.py --label mychange \\
        --parent /tmp/parent --change . \\
        --workloads plan_cold sweep --seeds 5 6 7 8 --seconds 8

Each checkout builds its own benchmark (perfbench/run.py configures
.bench_build/ inside it on first use), so build both before timing
anything: the first run per checkout is an untimed 1 s warm-up.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout, workload, seed, seconds):
    """One perfbench run; returns its result object (last line)."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True,
                         check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def metric_values(result):
    return {name: m["value"] for name, m in result["metrics"].items()}


def medians(runs):
    names = sorted({n for r in runs for n in r})
    return {n: statistics.median(r[n] for r in runs if n in r)
            for n in names}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True,
                    help="output goes to BENCH_<label>.json")
    ap.add_argument("--parent", required=True,
                    help="checkout of the parent commit")
    ap.add_argument("--change", required=True,
                    help="checkout of the change")
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=8)
    ap.add_argument("--out-dir", default=".",
                    help="directory for BENCH_<label>.json")
    args = ap.parse_args()

    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    for side, checkout in sides.items():
        print(f"warm-up build: {side}", file=sys.stderr)
        run_once(checkout, args.workloads[0], args.seeds[0], 1)

    record = {
        "label": args.label,
        "seconds_per_run": args.seconds,
        "seeds": args.seeds,
        "cpus": os.cpu_count(),
        "workloads": {},
    }
    for workload in args.workloads:
        runs = []
        for k, seed in enumerate(args.seeds):
            order = ["parent", "change"] if k % 2 == 0 \
                else ["change", "parent"]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                result = run_once(sides[side], workload, seed,
                                  args.seconds)
                pair[side] = metric_values(result)
                pair[side + "_jobs"] = result["attempted"]
                pair[side + "_failed"] = result["failed"]
                print(f"{workload} seed {seed} {side}: "
                      f"{json.dumps(pair[side])}", file=sys.stderr)
            runs.append(pair)
        med = {side: medians([r[side] for r in runs])
               for side in ("parent", "change")}
        ratio = {n: med["change"][n] / med["parent"][n]
                 for n in med["parent"] if med["parent"][n]}
        record["workloads"][workload] = {
            "runs": runs,
            "median": med,
            "median_change_over_parent": ratio,
        }

    path = os.path.join(args.out_dir, f"BENCH_{args.label}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)
        f.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
