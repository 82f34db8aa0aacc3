#!/usr/bin/env python3
"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

Each directory holds files with the stdout of single run.py runs.  For every
workload, trace mode and metric this prints each side's median, quartiles and
run count, and the change of the medians.  Runs whose environment stamps
(Python version, QQ backend, nproc, FGL_FORGE_THREADS) differ are flagged:
the rational backend alone changes arithmetic cost several-fold.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(directory):
    """{(workload, trace): [result, ...]} and the set of stamps seen."""
    runs, stamps = defaultdict(list), set()
    for path in sorted(Path(directory).iterdir()):
        lines = [line for line in path.read_text().splitlines() if line.startswith("{")]
        if len(lines) < 2:
            print(f"skipping {path}: no stamp and result lines", file=sys.stderr)
            continue
        stamp, result = json.loads(lines[-2]), json.loads(lines[-1])
        stamps.add(json.dumps(stamp["env"], sort_keys=True))
        runs[(stamp["workload"], stamp["trace"])].append(result)
    return runs, stamps


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(before_dir, after_dir):
    before, stamps_b = load(before_dir)
    after, stamps_a = load(after_dir)
    stamps = stamps_b | stamps_a
    if len(stamps) > 1:
        print("WARNING: runs come from different environments:")
        for stamp in sorted(stamps):
            print(f"  {stamp}")
    for key in sorted(set(before) & set(after)):
        print(f"{key[0]} (trace {key[1]}): {len(before[key])} before, {len(after[key])} after")
        for name in before[key][0]["metrics"]:
            unit = before[key][0]["metrics"][name]["unit"]
            b = quartiles([r["metrics"][name]["value"] for r in before[key]])
            a = quartiles([r["metrics"][name]["value"] for r in after[key]])
            change = f"{(a[1] - b[1]) / b[1]:+.1%}" if b[1] else "n/a"
            print(f"  {name:34s} {b[1]:.6g} [{b[0]:.4g}, {b[2]:.4g}] -> "
                  f"{a[1]:.6g} [{a[0]:.4g}, {a[2]:.4g}] {unit} {change}")
        failed = sum(r["failed"] for r in before[key] + after[key])
        if failed:
            print(f"  {failed} failed requests")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(sys.argv[1], sys.argv[2])
