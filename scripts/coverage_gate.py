#!/usr/bin/env python3
"""Line-coverage gate over a --coverage build, from `gcov -j` output.

Usage:
    python3 scripts/coverage_gate.py BUILD_DIR --filter src/serve/ \
        --filter src/fleet/ --fail-under-line 80

The gate behind `scripts/check.sh --coverage-only`.  It runs
`gcov --json-format --stdout` on every .gcda file under BUILD_DIR,
keeps the source files whose path relative to the repository root
starts with one of the filters (headers included),
and counts a line as covered when any translation unit executed it.
It prints the per-file and total line coverage and exits 1 when the
total is below the threshold (2 when there is nothing to measure).
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def gcov_json(gcda):
    """The parsed `gcov -j -t` document for one .gcda file."""
    out = subprocess.run(
        ["gcov", "--json-format", "--stdout", gcda],
        cwd=os.path.dirname(gcda), capture_output=True, text=True)
    if out.returncode != 0 or not out.stdout.strip():
        raise RuntimeError("gcov failed on %s: %s" % (gcda, out.stderr))
    return json.loads(out.stdout)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("build_dir")
    parser.add_argument("--filter", action="append", default=[])
    parser.add_argument("--fail-under-line", type=float, default=0.0)
    args = parser.parse_args()

    gcdas = []
    for dirpath, _, files in os.walk(args.build_dir):
        gcdas += [os.path.join(os.path.abspath(dirpath), f)
                  for f in files if f.endswith(".gcda")]
    # (file, line) -> executed by any translation unit
    lines = {}
    for gcda in sorted(gcdas):
        doc = gcov_json(gcda)
        base = doc.get("current_working_directory",
                       os.path.dirname(gcda))
        for f in doc["files"]:
            path = os.path.relpath(
                os.path.realpath(os.path.join(base, f["file"])), ROOT)
            if not any(path.startswith(p) for p in args.filter):
                continue
            for line in f["lines"]:
                key = (path, line["line_number"])
                lines[key] = lines.get(key, False) or line["count"] > 0

    if not lines:
        print("coverage: no measured lines under %s" % args.filter,
              file=sys.stderr)
        return 2
    per_file = {}
    for (path, _), covered in lines.items():
        total, hit = per_file.get(path, (0, 0))
        per_file[path] = (total + 1, hit + int(covered))
    for path in sorted(per_file):
        total, hit = per_file[path]
        print("%-40s %5d / %5d  %5.1f%%" % (path, hit, total,
                                            100.0 * hit / total))
    total = len(lines)
    hit = sum(lines.values())
    percent = 100.0 * hit / total
    print("lines: %.1f%% (%d out of %d)" % (percent, hit, total))
    if percent < args.fail_under_line:
        print("coverage: %.1f%% is below the %.1f%% gate"
              % (percent, args.fail_under_line), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
