#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

Runs perfbench/run.py once per (seed, workload), seeds in the outer
loop, and prints for every end-to-end metric of every workload the
median, the first and third quartiles (statistics.quantiles, n=4)
and the spread (q3 - q1) / median against the metric's bound in
BENCHMARK.json.  With --out it also writes the runs and the summary
as JSON; with --against it also prints how far each median moved
from those of an earlier record, in absolute value.  It exits 1 when
a spread is not below a third of its bound, or a median moved by
more than its bound.  Run it from the root of a checkout:

    python3 perfbench/steady.py --seeds 1-10 --out first.json
    python3 perfbench/steady.py --seeds 11-20 --against first.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit("%s seed %d failed: %s" % (workload, seed, result))
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out")
    parser.add_argument("--against")
    args = parser.parse_args()
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)["summary"]

    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = {w: [] for w in workloads}
    for seed in seed_list(args.seeds):
        for w in workloads:
            runs[w].append({"seed": seed, **run_once(w, seed, args.seconds)})
            print("%-13s seed %-3d %s" % (w, seed, json.dumps(runs[w][-1])),
                  flush=True)

    summary = {}
    steady = True
    for w in workloads:
        summary[w] = {}
        for metric, bound in bounds.items():
            s = summarize([r[metric] for r in runs[w]])
            summary[w][metric] = s
            notes = []
            if s["spread"] >= bound / 3:
                notes.append("spread above a third of its bound")
            moved = ""
            if metric in earlier.get(w, {}):
                before = earlier[w][metric]["median"]
                change = abs(s["median"] - before) / before
                moved = " moved %5.2f%%" % (100 * change)
                if change > bound:
                    notes.append("median moved by more than its bound")
            steady = steady and not notes
            print("%-13s %-12s median %-12.6g q1 %-12.6g q3 %-12.6g "
                  "spread %6.2f%%%s (bound %g%%)%s"
                  % (w, metric, s["median"], s["q1"], s["q3"],
                     100 * s["spread"], moved, 100 * bound,
                     "".join("  <-- " + n for n in notes)))
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seconds": args.seconds, "runs": runs,
                       "summary": summary}, f, indent=1)
            f.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
