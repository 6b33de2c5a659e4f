#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   # every workload in turn

Run from the root of a checkout. The first call configures and builds
perfbench/ (the library from src/ plus rp_perfbench) in .bench_build/perfbench;
later calls rebuild incrementally. Build output goes to stderr. rp_perfbench's
human-readable lines are echoed, and the last line of stdout is the result
JSON: {"correct", "attempted", "failed", "metrics"}. The full result, with
the host fingerprint, is written to .bench_build/results/ (see compare.py).

Extra flags, passed through to rp_perfbench: --smoke (tiny sizes) and
--inject flip-label|error-status (self-test faults).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "results")
BINARY = os.path.join(BUILD_DIR, "rp_perfbench")
WORKLOADS = ["tera13d-50k", "stream-serve-geolife", "ladder-osm2d-100k"]
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under %s/src; run from a full checkout"
             % ROOT)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "rp_perfbench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run_one(args, workload):
    """Runs rp_perfbench once; returns the parsed result line."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (workload, args.seed, args.trace)
    if args.smoke:
        stem += "-smoke"
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--pinned", os.path.join(HERE, "pinned_labels.txt"),
           "--result-file", os.path.join(RESULTS_DIR, stem + ".json")]
    if args.trace:
        cmd += ["--trace-file", os.path.join(RESULTS_DIR,
                                             stem + ".trace.json")]
    if args.smoke:
        cmd.append("--smoke")
    if args.inject != "none":
        cmd += ["--inject", args.inject]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s exited with code %d" % (workload, proc.returncode))
    for line in lines[:-1]:
        print(line, file=sys.stderr if args.workload == "all" else sys.stdout)
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("%s printed no result line" % workload)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--inject", default="none",
                        choices=["none", "flip-label", "error-status"])
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    build()
    if args.workload != "all":
        print(json.dumps(run_one(args, args.workload)))
        return

    # Every workload in turn: a table of every metric with its unit, then
    # one combined result line with workload-prefixed metric names.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = run_one(args, workload)
        print("== %s: correct=%s failed=%d/%d" % (
            workload, result["correct"], result["failed"],
            result["attempted"]))
        for name, metric in result["metrics"].items():
            print("  %-40s %14.6g %s" % (name, metric["value"],
                                         metric["unit"]))
            combined["metrics"][workload + "." + name] = metric
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
