#!/usr/bin/env python3
"""Gate CI on bench wall-time regressions.

Compares the per-chip design runtimes in a fresh BENCH_runtime.json against
the checked-in baseline (ci/bench_baseline.json) and fails when any chip —
or the worst-case total — regressed by more than the threshold fraction.

Wall-clock baselines are deliberately generous: they exist to catch
order-of-magnitude algorithmic regressions (a lost symbolic cache, an
accidental O(n^2) loop), not scheduler noise. Each chip also carries two
exact work counters that do not depend on the host — current-search probes
over the design and nnz(L) of the final deployment's pencil — gated with <=
against the baseline's counts, so a slide back to more probes or more fill
fails even when the wall clock hides it. Chips present in only one file are
reported but never fail the gate, so adding a chip does not require a
lockstep baseline update.

Every violated gate is accumulated — the run never stops at the first
failure — and the final FAIL summary lists each failing key with its actual
value against the baseline limit, so one CI run shows the full damage.

With --service-baseline/--service-current the gate also checks the solver
service's BENCH_service.json: each scenario's throughput must stay above the
baseline floor (min_throughput_rps) and its tail below the p99 ceiling
(max_p99_ms, when present). Floors are absolute, not relative, because
service throughput is far noisier than single-run wall time.

Usage:
  check_bench_regression.py --baseline ci/bench_baseline.json \
      --current BENCH_runtime.json [--threshold 0.25] \
      [--service-baseline ci/bench_service_baseline.json \
       --service-current BENCH_service.json]
"""

import argparse
import json
import sys


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def fail(key, actual, limit, direction="<="):
    """One accumulated gate violation: key plus actual-vs-baseline values."""
    return {"key": key, "actual": actual, "limit": limit, "direction": direction}


def fmt_value(v):
    if v is None:
        return "missing"
    if isinstance(v, float):
        return "%.3f" % v
    return str(v)


def check_service(baseline_path, current_path):
    """Return the list of failed service-scenario checks."""
    baseline = load(baseline_path)
    current = load(current_path)
    base_scenarios = baseline.get("scenarios", {})
    cur_scenarios = current.get("scenarios", {})

    failures = []
    print("\n%-14s %14s %14s  %s" % ("scenario", "floor[rps]", "current[rps]", "status"))
    for name in sorted(set(base_scenarios) | set(cur_scenarios)):
        base = base_scenarios.get(name)
        cur = cur_scenarios.get(name)
        if base is None:
            print("%-14s %14s %14.0f  new (no baseline)"
                  % (name, "-", cur["throughput_rps"]))
            continue
        if cur is None:
            print("%-14s %14.0f %14s  missing in current"
                  % (name, base["min_throughput_rps"], "-"))
            failures.append(fail("service:%s" % name, None,
                                 float(base["min_throughput_rps"]), ">="))
            continue
        floor = float(base["min_throughput_rps"])
        rps = float(cur["throughput_rps"])
        status = "ok"
        if rps < floor:
            status = "REGRESSED (floor %.0f rps)" % floor
            failures.append(fail("service:%s:throughput_rps" % name, rps, floor, ">="))
        ceiling = base.get("max_p99_ms")
        if ceiling is not None and float(cur.get("p99_ms", 0.0)) > float(ceiling):
            status = "REGRESSED (p99 %.2f ms > %.2f ms)" % (cur["p99_ms"], ceiling)
            failures.append(fail("service:%s:p99_ms" % name,
                                 float(cur["p99_ms"]), float(ceiling)))
        print("%-14s %14.0f %14.0f  %s" % (name, floor, rps, status))
    return failures


def check_restamp(baseline, current):
    """Gate the engine's incremental re-stamp against full reassembly.

    Two checks, both against ci/bench_baseline.json's greedy_restamp block:
    an absolute ceiling on the incremental per-pass cost, and a
    machine-independent floor on the full/incremental ratio — the speedup the
    engine layer exists to provide must not silently erode back to 1x.
    """
    base = baseline.get("greedy_restamp")
    if base is None:
        return []
    cur = current.get("greedy_restamp")
    if cur is None:
        print("greedy re-stamp: MISSING from current bench output")
        return [fail("greedy_restamp", None, None)]

    failures = []
    inc = float(cur["pass_incremental_ms"])
    full = float(cur["pass_full_assemble_ms"])
    ratio = full / inc if inc > 0.0 else float("inf")
    ceiling = float(base["max_pass_incremental_ms"])
    floor = float(base["min_pass_saved_ratio"])
    status = "ok"
    if inc > ceiling:
        status = "REGRESSED (ceiling %.3f ms)" % ceiling
        failures.append(fail("greedy_restamp:pass_incremental_ms", inc, ceiling))
    if ratio < floor:
        status = "REGRESSED (ratio floor %.1fx)" % floor
        failures.append(fail("greedy_restamp:pass_saved_ratio", ratio, floor, ">="))
    print("greedy re-stamp per pass: %.3f ms incremental vs %.3f ms full "
          "(%.1fx, floor %.1fx)  %s" % (inc, full, ratio, floor, status))
    return failures


def check_backends(baseline, current):
    """Gate per-backend point-solve latency against absolute ceilings."""
    base = baseline.get("backend_probe_ms")
    if base is None:
        return []
    cur = current.get("backend_probe_ms")
    if cur is None:
        print("backend probes: MISSING from current bench output")
        return [fail("backend_probe_ms", None, None)]

    failures = []
    for name in sorted(k for k in base if k != "comment"):
        ceiling = float(base[name])
        if name not in cur:
            print("backend %-8s probe: missing in current (ceiling %.1f ms)"
                  % (name, ceiling))
            failures.append(fail("backend_probe_ms:%s" % name, None, ceiling))
            continue
        ms = float(cur[name])
        status = "ok" if ms <= ceiling else "REGRESSED (ceiling %.1f ms)" % ceiling
        if ms > ceiling:
            failures.append(fail("backend_probe_ms:%s" % name, ms, ceiling))
        print("backend %-8s probe: %8.3f ms (ceiling %.1f ms)  %s"
              % (name, ms, ceiling, status))
    return failures


def check_audit(baseline, current):
    """Gate the numerical-health audit overhead on the point-solve path.

    bench_runtime measures mean probe latency with the engine audit off vs on
    at the service's default 1-in-8 sample rate; the sampled certificate (one
    SpMV + a few O(n) passes) must stay under the baseline's percentage cap.
    """
    base = baseline.get("audit_overhead")
    if base is None:
        return []
    cur = current.get("audit_overhead")
    if cur is None:
        print("audit overhead: MISSING from current bench output")
        return [fail("audit_overhead", None, None)]

    cap = float(base["max_overhead_pct"])
    pct = float(cur["overhead_pct"])
    status = "ok" if pct <= cap else "REGRESSED (cap %.1f%%)" % cap
    print("audit overhead: %.3f ms unaudited vs %.3f ms audited = %+.2f%% "
          "(cap %.1f%%)  %s"
          % (float(cur["probe_unaudited_ms"]), float(cur["probe_audited_ms"]),
             pct, cap, status))
    return [] if pct <= cap else [fail("audit_overhead:overhead_pct", pct, cap)]


def check_runaway(baseline, current):
    """Gate the λ_m eigensolver ablation on the designed Alpha deployment.

    Two checks against ci/bench_baseline.json's runaway block: an absolute
    ceiling on the sparse shift-invert Lanczos wall time (the engine-default
    eigensolve must stay interactive), and a machine-independent floor on the
    dense/sparse ratio — the point of the sparse path is to beat the dense
    pencil bisection by orders of magnitude, and that margin must not erode.
    """
    base = baseline.get("runaway")
    if base is None:
        return []
    cur = current.get("runaway")
    if cur is None:
        print("runaway eigensolvers: MISSING from current bench output")
        return [fail("runaway", None, None)]

    failures = []
    sparse = float(cur["sparse_ms"])
    dense = float(cur["dense_ms"])
    ratio = float(cur["dense_over_sparse_ratio"])
    ceiling = float(base["max_sparse_ms"])
    floor = float(base["min_dense_over_sparse_ratio"])
    status = "ok"
    if sparse > ceiling:
        status = "REGRESSED (ceiling %.1f ms)" % ceiling
        failures.append(fail("runaway:sparse_ms", sparse, ceiling))
    if ratio < floor:
        status = "REGRESSED (ratio floor %.0fx)" % floor
        failures.append(fail("runaway:dense_over_sparse_ratio", ratio, floor, ">="))
    print("runaway lambda_m on Alpha: %.3f ms sparse Lanczos (ceiling %.1f ms) vs "
          "%.1f ms dense (%.0fx, floor %.0fx)  %s"
          % (sparse, ceiling, dense, ratio, floor, status))
    return failures


def check_sim(baseline, current):
    """Gate the tfc::sim transient scenario integrator's per-step cost.

    One absolute ceiling against ci/bench_baseline.json's sim_step block: the
    mean backward-Euler step wall time on the designed Alpha deployment. A
    step is a numeric-only sparse solve against one shared symbolic analysis
    plus an in-place state swap, so a blown ceiling means the symbolic-cache
    sharing or the allocation-free step_into path regressed.
    """
    base = baseline.get("sim_step")
    if base is None:
        return []
    cur = current.get("sim_step")
    if cur is None:
        print("sim step: MISSING from current bench output")
        return [fail("sim_step", None, None)]

    step = float(cur["mean_step_ms"])
    ceiling = float(base["max_step_ms"])
    status = "ok" if step <= ceiling else "REGRESSED (ceiling %.2f ms)" % ceiling
    print("transient sim step on Alpha: %.3f ms mean over %d steps "
          "(ceiling %.2f ms)  %s"
          % (step, int(cur.get("steps", 0)), ceiling, status))
    return [] if step <= ceiling else [fail("sim_step:mean_step_ms", step, ceiling)]


def check_stack_scale(baseline, current):
    """Gate declarative-package mesh scaling (100x100 single-die StackSpec).

    Four absolute ceilings against ci/bench_baseline.json's stack_scale
    block: assembly+factorization of the 10 000-tile SolveContext, one steady
    solve on it, the sparse shift-invert Lanczos lambda_m bound, and a
    full-cover design of the spec. A blown ceiling means spec-driven
    assembly, the fill-reducing ordering or the eigensolver stopped scaling
    with mesh resolution.
    """
    base = baseline.get("stack_scale")
    if base is None:
        return []
    cur = current.get("stack_scale")
    if cur is None:
        print("stack scaling: MISSING from current bench output")
        return [fail("stack_scale", None, None)]

    failures = []
    status = "ok"
    for key in ("build_ms", "solve_ms", "lambda_ms", "design_ms"):
        ceiling = float(base["max_%s" % key])
        ms = cur.get(key)
        if ms is None or float(ms) > ceiling:
            status = "REGRESSED"
            failures.append(fail("stack_scale:%s" % key, ms, ceiling))
    print("stack scaling (%d tiles): build %.1f ms (ceiling %.0f), solve %.2f ms "
          "(ceiling %.0f), lambda_m %.1f ms (ceiling %.0f), design %s ms "
          "(ceiling %.0f)  %s"
          % (int(cur.get("tiles", 0)), float(cur["build_ms"]),
             float(base["max_build_ms"]), float(cur["solve_ms"]),
             float(base["max_solve_ms"]), float(cur["lambda_ms"]),
             float(base["max_lambda_ms"]), fmt_value(cur.get("design_ms")),
             float(base["max_design_ms"]), status))
    return failures


def check_profile(baseline, current):
    """Gate the continuous profiler's attribution and overhead.

    Two checks against ci/bench_baseline.json's profile block: a floor on the
    self-time coverage (the per-kernel self times of the single-threaded
    Alpha design run must explain at least that fraction of the wall clock —
    eroding coverage means a hot path lost its span), and a percentage cap on
    the enabled-vs-disabled wall-time overhead (the profiler must stay cheap
    enough to leave on in production).
    """
    base = baseline.get("profile")
    if base is None:
        return []
    cur = current.get("profile")
    if cur is None:
        print("profiler attribution: MISSING from current bench output")
        return [fail("profile", None, None)]

    failures = []
    coverage = float(cur["self_coverage"])
    pct = float(cur["overhead_pct"])
    floor = float(base["min_self_coverage"])
    cap = float(base["max_overhead_pct"])
    status = "ok"
    if coverage < floor:
        status = "REGRESSED (coverage floor %.0f%%)" % (100.0 * floor)
        failures.append(fail("profile:self_coverage", coverage, floor, ">="))
    if pct > cap:
        status = "REGRESSED (overhead cap %.1f%%)" % cap
        failures.append(fail("profile:overhead_pct", pct, cap))
    print("profiler on Alpha design: %.0f%% of wall attributed to kernels "
          "(floor %.0f%%), %+.2f%% overhead (cap %.1f%%)  %s"
          % (100.0 * coverage, 100.0 * floor, pct, cap, status))
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--current", required=True)
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="allowed relative wall-time growth (default 0.25)")
    ap.add_argument("--service-baseline",
                    help="throughput floors for BENCH_service.json")
    ap.add_argument("--service-current",
                    help="fresh BENCH_service.json to gate (requires "
                         "--service-baseline)")
    args = ap.parse_args()

    baseline = load(args.baseline)
    current = load(args.current)
    base_chips = baseline.get("chips", {})
    cur_chips = current.get("chips", {})

    failures = []
    rows = []
    for name in sorted(set(base_chips) | set(cur_chips)):
        if name not in base_chips:
            rows.append((name, None, cur_chips[name]["runtime_ms"],
                         cur_chips[name].get("probes"), cur_chips[name].get("nnz_l"),
                         "new (no baseline)"))
            continue
        if name not in cur_chips:
            rows.append((name, base_chips[name]["runtime_ms"], None, None, None,
                         "missing in current"))
            continue
        base_ms = float(base_chips[name]["runtime_ms"])
        cur_ms = float(cur_chips[name]["runtime_ms"])
        limit = base_ms * (1.0 + args.threshold)
        status = "ok"
        if cur_ms > limit:
            status = "REGRESSED (limit %.0f ms)" % limit
            failures.append(fail("chip:%s:runtime_ms" % name, cur_ms, limit))
        for counter in ("probes", "nnz_l"):
            cap = base_chips[name].get(counter)
            if cap is None:
                continue
            count = cur_chips[name].get(counter)
            if count is None or int(count) > int(cap):
                status = "REGRESSED (%s %s > %d)" % (counter, fmt_value(count), cap)
                failures.append(fail("chip:%s:%s" % (name, counter), count, int(cap)))
        if not cur_chips[name].get("success", True):
            status = "DESIGN FAILED"
            failures.append(fail("chip:%s:success" % name, False, True, "=="))
        rows.append((name, base_ms, cur_ms, cur_chips[name].get("probes"),
                     cur_chips[name].get("nnz_l"), status))

    print("%-8s %14s %14s %8s %8s  %s"
          % ("chip", "baseline[ms]", "current[ms]", "probes", "nnz(L)", "status"))
    for name, base_ms, cur_ms, probes, nnz_l, status in rows:
        print("%-8s %14s %14s %8s %8s  %s"
              % (name,
                 "-" if base_ms is None else "%.0f" % base_ms,
                 "-" if cur_ms is None else "%.0f" % cur_ms,
                 "-" if probes is None else probes,
                 "-" if nnz_l is None else nnz_l,
                 status))

    base_worst = baseline.get("worst_ms")
    cur_worst = current.get("worst_ms")
    if base_worst is not None and cur_worst is not None:
        limit = float(base_worst) * (1.0 + args.threshold)
        print("worst:   %14.0f %14.0f  %s"
              % (base_worst, cur_worst, "ok" if cur_worst <= limit else "REGRESSED"))
        if cur_worst > limit:
            failures.append(fail("worst_ms", float(cur_worst), limit))

    speedup = current.get("greedy_speedup", {}).get("speedup")
    if speedup is not None:
        print("greedy 1t->8t speedup: %.2fx" % speedup)

    failures += check_restamp(baseline, current)
    failures += check_backends(baseline, current)
    failures += check_audit(baseline, current)
    failures += check_runaway(baseline, current)
    failures += check_sim(baseline, current)
    failures += check_stack_scale(baseline, current)
    failures += check_profile(baseline, current)

    if bool(args.service_baseline) != bool(args.service_current):
        print("error: --service-baseline and --service-current go together",
              file=sys.stderr)
        return 2
    if args.service_baseline:
        failures += check_service(args.service_baseline, args.service_current)

    if failures:
        print("\nFAIL: %d gate(s) violated (threshold %.0f%%):"
              % (len(failures), 100.0 * args.threshold), file=sys.stderr)
        for f in failures:
            print("  %-44s actual %s, required %s %s"
                  % (f["key"], fmt_value(f["actual"]), f["direction"],
                     fmt_value(f["limit"])), file=sys.stderr)
        return 1
    print("\nOK: within %.0f%% of baseline" % (100.0 * args.threshold))
    return 0


if __name__ == "__main__":
    sys.exit(main())
