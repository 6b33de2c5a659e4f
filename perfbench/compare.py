#!/usr/bin/env python3
"""Compares benchmark results of two commits on one host.

    python3 perfbench/compare.py --base A1.json A2.json ... --new B1.json ...

Each file is a full result written by run.py under .bench_build/results/
(one run each). All files must be of the same workload and mode. The
comparison is refused (exit 3) when any two host fingerprints differ in
nproc, CPU model, cache sizes, SIMD level or build type, or when the two
sides' median calibration-loop times differ by more than
CALIBRATION_TOLERANCE: numbers from different hosts are not comparable.
A single run's calibration time drifts by about 10% on a shared host, so
the sides' medians are compared, not single runs. Otherwise it prints, per
metric, the median of each side and the change, and marks end-to-end
metrics that got worse by more than their bound in BENCHMARK.json (exit 1
if any did).
"""

import argparse
import json
import os
import statistics
import sys

CALIBRATION_TOLERANCE = 0.20
IDENTITY = ["nproc", "cpu_model", "l1d_bytes", "l2_bytes", "l3_bytes",
            "simd", "build_type"]
HERE = os.path.dirname(os.path.abspath(__file__))


def load(paths):
    results = []
    for path in paths:
        with open(path) as f:
            results.append(json.load(f))
    return results


def fingerprint_problem(base, new):
    """Returns why the results' hosts differ, or None."""
    first = base[0]["fingerprint"]
    for r in base + new:
        fp = r["fingerprint"]
        for key in IDENTITY:
            if fp[key] != first[key]:
                return "%s differs: %r vs %r" % (key, first[key], fp[key])
    calib = [statistics.median(r["fingerprint"]["calibration_ms"]
                               for r in side) for side in (base, new)]
    if max(calib) > min(calib) * (1 + CALIBRATION_TOLERANCE):
        return "median calibration loop %.2f vs %.2f ms" % tuple(calib)
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    parser.add_argument("--benchmark",
                        default=os.path.join(HERE, "..", "BENCHMARK.json"))
    args = parser.parse_args()
    base, new = load(args.base), load(args.new)
    everything = base + new

    kinds = {(r["workload"], r["trace"], r["smoke"]) for r in everything}
    if len(kinds) != 1:
        print("refused: results mix workloads or modes: %s" % sorted(kinds))
        sys.exit(3)
    problem = fingerprint_problem(base, new)
    if problem:
        print("refused: host fingerprints differ (%s)" % problem)
        sys.exit(3)

    with open(args.benchmark) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    regressed = False
    print("%-40s %14s %14s %9s" % ("metric", "base", "new", "change"))
    for name in base[0]["metrics"]:
        b = statistics.median(r["metrics"][name]["value"] for r in base)
        n = statistics.median(r["metrics"][name]["value"] for r in new)
        change = (n - b) / b if b else 0.0
        note = ""
        if name in spec:
            worse = change if spec[name]["better"] == "lower" else -change
            if worse > spec[name]["bound"]:
                note = "  REGRESSION (bound %g)" % spec[name]["bound"]
                regressed = True
        print("%-40s %14.6g %14.6g %+8.1f%%%s" % (name, b, n, 100 * change,
                                                  note))
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
