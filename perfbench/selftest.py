#!/usr/bin/env python3
"""Self-test of the benchmark: one short run per workload.

Usage (from the root of a checkout):

    python3 perfbench/selftest.py [--seconds S] [WORKLOAD ...]

For every workload (default: all in BENCHMARK.json) it asserts that

- an untraced run prints every end_to_end metric of BENCHMARK.json with its
  unit, reports correct, and fails no op;
- two traced runs with the same seed print every per_layer metric with its
  unit, fail no op, and repeat the per-layer counts exactly.

Exits 0 when every check passes, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-layer counts that depend only on the seeded inputs, never on timing.
EXACT_COUNTS = (
    "linalg.sparse_refactor.calls_per_op",
    "linalg.sparse_solve.calls_per_op",
    "engine.engine_probe.calls_per_op",
    "linalg.factor_nnz",
    "sim.distinct_currents_per_op",
)


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError("%s trace=%d exited %d: %s"
                             % (workload, trace, out.returncode, out.stderr[-2000:]))
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_result(result, defs, label):
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("%s: result keys %s" % (label, sorted(result)))
    if not result.get("correct") or result.get("failed") != 0:
        errors.append("%s: correct=%s failed=%s"
                      % (label, result.get("correct"), result.get("failed")))
    if not result.get("attempted", 0) >= 1:
        errors.append("%s: nothing attempted" % label)
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(d["name"] for d in defs):
        errors.append("%s: metric names differ from BENCHMARK.json" % label)
    for d in defs:
        m = metrics.get(d["name"], {})
        if m.get("unit") != d["unit"] or not isinstance(m.get("value"), (int, float)):
            errors.append("%s: %s printed as %s" % (label, d["name"], m))
    return errors


def check_workload(bench, workload, seed, seconds):
    try:
        plain = run(workload, seed, seconds, 0)
        first = run(workload, seed, seconds, 1)
        second = run(workload, seed, seconds, 1)
    except (AssertionError, subprocess.TimeoutExpired, ValueError) as e:
        return [str(e)]
    errors = check_result(plain, bench["end_to_end"], workload + " untraced")
    for label, traced in (("traced #1", first), ("traced #2", second)):
        errors += check_result(traced, bench["per_layer"], workload + " " + label)
    for name in EXACT_COUNTS:
        a = first["metrics"].get(name, {}).get("value")
        b = second["metrics"].get(name, {}).get("value")
        if a != b:
            errors.append("%s: %s differs between traced runs: %s vs %s"
                          % (workload, name, a, b))
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=4)
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args()

    failed = False
    for workload in args.workloads:
        errors = check_workload(bench, workload, seed=7, seconds=args.seconds)
        for e in errors:
            print("FAIL " + e)
        print("%s: %s" % (workload, "FAIL" if errors else "ok"), flush=True)
        failed = failed or bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
