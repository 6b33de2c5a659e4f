#!/usr/bin/env python3
"""Self-test of the benchmark (smoke sizes, about a minute).

    python3 perfbench/selftest.py

Checks, for every workload:
  * a smoke-size run in both modes succeeds with failed == 0, and its
    result line has exactly its four keys and exactly the metrics
    BENCHMARK.json lists for that mode, with their units;
  * an injected flipped label and an injected error Status each make the
    run report a failure (failed >= 1, correct false, failed_frac > 0);
  * the traced run's Chrome trace parses and carries self times;
and that compare.py refuses results whose host fingerprints differ.
Exits 0 when everything passes.
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(ROOT, ".bench_build", "results")
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def run(workload, trace, inject="none"):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "0", "--seconds", "1", "--trace", str(trace),
           "--smoke", "--inject", inject]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def result_file(workload, trace, suffix=".json"):
    return os.path.join(RESULTS, "%s-seed0-trace%d-smoke%s" % (
        workload, trace, suffix))


def schema_ok(result, expected):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return False
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)
            and isinstance(result["correct"], bool)):
        return False
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        return False
    return all(set(m) == {"value", "unit"}
               and isinstance(m["value"], (int, float))
               and m["unit"] == expected[name]
               for name, m in metrics.items())


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run(workload, trace)
            name = "%s trace=%d" % (workload, trace)
            check(result is not None, name + ": runs")
            if result is None:
                continue
            check(schema_ok(result, expected[trace]), name + ": schema")
            check(result["correct"] and result["failed"] == 0,
                  name + ": outputs correct")
        with open(result_file(workload, 1, ".trace.json")) as f:
            chrome = json.load(f)
        check(len(chrome["traceEvents"]) > 0
              and len(chrome["otherData"]["self_seconds"]) > 0,
              workload + ": chrome trace with self times")
        for inject in ("flip-label", "error-status"):
            result = run(workload, 0, inject)
            with open(result_file(workload, 0)) as f:
                full = json.load(f)
            check(result is not None and result["failed"] >= 1
                  and not result["correct"] and full["failed_frac"] > 0,
                  "%s: injected %s raises failed_frac" % (workload, inject))

    # compare.py must refuse results from different hosts.
    with open(result_file(WORKLOADS[0], 0)) as f:
        base = json.load(f)
    other = json.loads(json.dumps(base))
    other["fingerprint"]["nproc"] = base["fingerprint"]["nproc"] + 1
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
        paths = []
        for i, r in enumerate((base, other)):
            paths.append(os.path.join(tmp, "r%d.json" % i))
            with open(paths[-1], "w") as f:
                json.dump(r, f)
        code = subprocess.run(
            [sys.executable, os.path.join(HERE, "compare.py"), "--base",
             paths[0], "--new", paths[1]], stdout=subprocess.DEVNULL).returncode
    check(code == 3, "compare.py refuses differing fingerprints")

    print("%d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
