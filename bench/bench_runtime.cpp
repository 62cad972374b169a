/// \file bench_runtime.cpp
/// \brief Reproduce the **runtime claim** of Section VI: "for all
/// benchmarks, the execution time of our algorithm is less than 3 minutes"
/// ("within 2 minutes" for the Alpha chip — on four 2.8 GHz Xeons of 2010).
///
/// Wall-clock of the full design run (GreedyDeploy + convex current setting
/// + full-cover comparison) per chip with its work counters (current-search
/// probes, Lanczos iterations of its λ_m solves, numeric refactorizations,
/// nnz(L) of the final deployment's pencil), a breakdown of where
/// the time goes on the Alpha instance, and the greedy deployment at 1 vs 8
/// threads. Everything is also written to `BENCH_runtime.json`, headed by
/// the compiler, build type and `git describe`, so CI can diff runs and gate
/// regressions.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <memory>

#include "bench_common.h"
#include "core/convexity.h"
#include "core/greedy_deploy.h"
#include "engine/solve_context.h"
#include "obs/build_info.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "par/thread_pool.h"
#include "sim/scenario.h"
#include "tec/runaway.h"
#include "thermal/stack_spec.h"

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Greedy deployment on one chip at a fixed pool size; returns wall ms
/// (best of `reps` to damp scheduler noise). \p incremental_restamp toggles
/// the engine's per-pass incremental re-stamping vs the pre-engine
/// full-reassembly behaviour.
double greedy_ms_at(std::size_t threads, const tfc::linalg::Vector& powers,
                    int reps = 3, bool incremental_restamp = true) {
  using namespace tfc;
  par::ThreadPool::set_global_threads(threads);
  core::GreedyDeployOptions options;
  options.engine.incremental_restamp = incremental_restamp;
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    (void)core::greedy_deploy(thermal::paper_package(), powers,
                              tec::TecDeviceParams::chowdhury_superlattice(), options);
    best = std::min(best, ms_since(t0));
  }
  return best;
}

/// Mean point-solve latency of one engine backend on \p context [ms]. Each
/// call solves at a new current, so every direct solve factors afresh: a
/// pooled workspace keeps the factor of its last current, and a repeat of it
/// would measure only the triangular solves.
double backend_probe_ms(const tfc::engine::SolveContext& context, int reps = 20) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int k = 0; k < reps; ++k) (void)context.solve(3.0 + 1e-3 * k);
  return ms_since(t0) / reps;
}

}  // namespace

int main() {
  using namespace tfc;

  std::printf("=== Design runtime per chip (paper budget: < 180 000 ms) ===\n\n");
  std::printf("%-6s %12s %8s %8s %8s %9s %8s %8s\n", "chip", "runtime[ms]", "#TECs",
              "probes", "lanczos", "refactors", "nnz(L)", "status");
  struct ChipRow {
    std::string name;
    double runtime_ms;
    std::size_t tecs;
    bool success;
    std::size_t probes;  ///< current-search objective evaluations, whole design
    std::size_t lanczos_iters;  ///< Lanczos steps of every λ_m solve, whole design
    std::size_t refactors;  ///< numeric sparse refactorizations, whole design
    std::size_t nnz_l;   ///< nnz(L) of the final deployment's pencil
  };
  std::vector<ChipRow> rows;
  double worst = 0.0;
  auto& evaluations = obs::MetricsRegistry::global().histogram(
      "current_opt.objective_evaluations");
  auto& lanczos = obs::MetricsRegistry::global().histogram("linalg.lanczos_iters");
  auto& refactors = obs::MetricsRegistry::global().counter("cholesky.sparse.refactors");
  for (const auto& chip : bench::table1_chips()) {
    const double evaluations0 = evaluations.summary().sum;
    const double lanczos0 = lanczos.summary().sum;
    const std::uint64_t refactors0 = refactors.value();
    auto res = bench::design_with_fallback(chip);
    const auto probes = std::size_t(evaluations.summary().sum - evaluations0);
    const auto lanczos_iters = std::size_t(lanczos.summary().sum - lanczos0);
    const auto design_refactors = std::size_t(refactors.value() - refactors0);
    const std::size_t nnz_l =
        tec::ElectroThermalSystem::assemble(
            thermal::PackageGeometry{}, res.deployment, chip.tile_powers,
            tec::TecDeviceParams::chowdhury_superlattice())
            .cholesky_symbolic()
            .factor_nnz();
    std::printf("%-6s %12.0f %8zu %8zu %8zu %9zu %8zu %8s\n", chip.name.c_str(),
                res.runtime_ms, res.tec_count, probes, lanczos_iters, design_refactors,
                nnz_l, res.success ? "ok" : "FAILED");
    rows.push_back({chip.name, res.runtime_ms, res.tec_count, res.success, probes,
                    lanczos_iters, design_refactors, nnz_l});
    worst = std::max(worst, res.runtime_ms);
  }
  std::printf("\nworst chip: %.0f ms — %.0fx under the paper's 3-minute budget\n",
              worst, 180000.0 / std::max(worst, 1.0));

  // Breakdown on Alpha.
  const auto powers = bench::worst_case_map(floorplan::alpha21364());
  auto res = bench::design_with_fallback({"Alpha", powers});
  auto system = tec::ElectroThermalSystem::assemble(thermal::PackageGeometry{},
                                                    res.deployment, powers,
                                                    tec::TecDeviceParams::chowdhury_superlattice());

  auto t0 = std::chrono::steady_clock::now();
  for (int k = 0; k < 20; ++k) (void)system.solve(3.0);
  const double solve_ms = ms_since(t0) / 20.0;

  // λ_m on the designed Alpha deployment: the sparse shift-invert Lanczos
  // every path uses vs the dense pencil-bisection oracle. Best of a few reps
  // to damp scheduler noise — the gate (check_bench_regression.py) caps
  // sparse_ms absolutely and floors the machine-independent dense/sparse
  // ratio.
  auto lm_ms = [](const auto& lambda_m, int reps) {
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
      const auto t1 = std::chrono::steady_clock::now();
      (void)lambda_m();
      best = std::min(best, ms_since(t1));
    }
    return best;
  };
  const double lm_sparse_ms = lm_ms([&] { return tec::runaway_limit(system); }, 5);
  const double lm_dense_ms =
      lm_ms([&] { return bench::dense_runaway_limit(system); }, 2);
  const double lm_ratio = lm_dense_ms / std::max(lm_sparse_ms, 1e-9);

  t0 = std::chrono::steady_clock::now();
  (void)core::optimize_current(system);
  const double opt_ms = ms_since(t0);

  t0 = std::chrono::steady_clock::now();
  (void)core::certify_convexity(system);
  const double cert_ms = ms_since(t0);

  std::printf("\nAlpha breakdown: one steady solve %.2f ms | lambda_m %.2f ms "
              "(sparse Lanczos) vs %.1f ms (dense bisect, %.0fx slower) | current "
              "optimization %.1f ms | Theorem-4 certificate %.1f ms\n",
              solve_ms, lm_sparse_ms, lm_dense_ms, lm_ratio, opt_ms, cert_ms);

  // Greedy deployment on Alpha at 1 vs 8 threads. Deterministic by
  // construction: both pool sizes compute the same design. Its probes run
  // serially (one bisection per pass), so the speedup reads about 1x.
  const unsigned hw = std::thread::hardware_concurrency();
  const double greedy_1t_ms = greedy_ms_at(1, powers);
  const double greedy_8t_ms = greedy_ms_at(8, powers);
  par::ThreadPool::set_global_threads(0);
  const double speedup = greedy_1t_ms / std::max(greedy_8t_ms, 1e-9);
  std::printf("\ngreedy deployment on Alpha: %.0f ms at 1 thread, %.0f ms at 8 "
              "threads — %.2fx speedup (%u hardware threads available)\n",
              greedy_1t_ms, greedy_8t_ms, speedup, hw);

  // Engine-layer ablations on Alpha, single-threaded so the deltas are not
  // hidden by pool scheduling:
  //  * incremental re-stamping (PackageModel::extend_tec per greedy pass) vs
  //    the pre-engine full PackageModel reassembly, and
  //  * per-backend point-solve latency on the designed deployment.
  const double greedy_inc_ms = greedy_ms_at(1, powers, 3, true);
  const double greedy_full_ms = greedy_ms_at(1, powers, 3, false);
  par::ThreadPool::set_global_threads(0);
  std::printf("\ngreedy on Alpha (1 thread): %.1f ms with incremental re-stamping "
              "vs %.1f ms with full reassembly per pass\n",
              greedy_inc_ms, greedy_full_ms);

  // The per-pass re-stamp itself, isolated: grow the designed deployment by
  // its final tile via extend() — incrementally (PackageModel::extend_tec)
  // vs the pre-engine full from-geometry reassembly. This is the assembly
  // overhead incremental re-stamping eliminates from every greedy pass.
  double pass_inc_ms = 1e300, pass_full_ms = 1e300;
  {
    const auto tiles = res.deployment.tiles();
    TileMask partial(res.deployment.rows(), res.deployment.cols());
    for (std::size_t k = 0; k + 1 < tiles.size(); ++k) {
      partial.set(tiles[k].row, tiles[k].col);
    }
    for (int r = 0; r < 10; ++r) {
      engine::SolveContext ctx(thermal::PackageGeometry{}, partial, powers,
                               tec::TecDeviceParams::chowdhury_superlattice());
      const auto t1 = std::chrono::steady_clock::now();
      ctx.extend(res.deployment);
      pass_inc_ms = std::min(pass_inc_ms, ms_since(t1));
    }
    engine::EngineOptions full_opts;
    full_opts.incremental_restamp = false;
    for (int r = 0; r < 10; ++r) {
      engine::SolveContext ctx(thermal::PackageGeometry{}, partial, powers,
                               tec::TecDeviceParams::chowdhury_superlattice(),
                               full_opts);
      const auto t1 = std::chrono::steady_clock::now();
      ctx.extend(res.deployment);
      pass_full_ms = std::min(pass_full_ms, ms_since(t1));
    }
  }
  std::printf("per-pass re-stamp on Alpha: %.3f ms incremental vs %.3f ms full "
              "assembly — %.3f ms eliminated per greedy pass\n",
              pass_inc_ms, pass_full_ms, pass_full_ms - pass_inc_ms);

  double probe_ms[2] = {0.0, 0.0};
  const engine::Backend kBackends[2] = {engine::Backend::kCholesky,
                                        engine::Backend::kCg};
  for (int k = 0; k < 2; ++k) {
    engine::EngineOptions opts;
    opts.backend = kBackends[k];
    opts.audit.enabled = false;  // the audit ablation is measured separately
    const engine::SolveContext context(thermal::PackageGeometry{}, res.deployment,
                                       powers,
                                       tec::TecDeviceParams::chowdhury_superlattice(),
                                       opts);
    probe_ms[k] = backend_probe_ms(context);
    std::printf("point solve via %-8s backend: %8.3f ms\n",
                engine::backend_name(kBackends[k]), probe_ms[k]);
  }

  // Numerical-health audit ablation: mean point-solve latency with the
  // engine audit off vs on at the service's default 1-in-8 sample rate, best
  // of 200 alternating 8-solve blocks per side. Every audited block holds
  // exactly one certificate, and a block (~3 ms) is short enough that the
  // alternation cancels host drift, which swamps the ~1% being measured. The
  // gate (check_bench_regression.py) caps the overhead at 5%.
  double audit_off_ms = 1e300, audit_on_ms = 1e300;
  {
    engine::EngineOptions opts;
    opts.audit.enabled = false;
    const engine::SolveContext off(thermal::PackageGeometry{}, res.deployment, powers,
                                   tec::TecDeviceParams::chowdhury_superlattice(), opts);
    opts.audit.enabled = true;
    opts.audit.sample_every = 8;  // svc::ServerOptions::audit_every default
    const engine::SolveContext on(thermal::PackageGeometry{}, res.deployment, powers,
                                  tec::TecDeviceParams::chowdhury_superlattice(), opts);
    for (int r = 0; r < 200; ++r) {
      audit_off_ms = std::min(audit_off_ms, backend_probe_ms(off, 8));
      audit_on_ms = std::min(audit_on_ms, backend_probe_ms(on, 8));
    }
  }
  const double audit_overhead_pct =
      audit_off_ms > 0.0 ? 100.0 * (audit_on_ms - audit_off_ms) / audit_off_ms : 0.0;
  std::printf("audit ablation (1-in-8 sampling): %.3f ms unaudited vs %.3f ms "
              "audited — %.2f%% overhead\n",
              audit_off_ms, audit_on_ms, audit_overhead_pct);

  // Transient scenario stepping (tfc::sim): mean backward-Euler step cost of
  // the closed-loop simulate path on the designed Alpha deployment. Each step
  // is a numeric-only sparse solve (one symbolic analysis shared across every
  // current level), so the gate (check_bench_regression.py) caps the mean
  // per-step wall time absolutely.
  double sim_step_ms = 1e300;
  std::size_t sim_steps = 0;
  {
    const auto plan = floorplan::alpha21364();
    sim::ScenarioOptions sopts;
    sopts.steps = 400;
    sopts.frame_every = 100;
    if (res.current > 0.0) {
      sopts.policy.current_levels = {0.0, 0.5 * res.current, res.current};
    }
    for (int r = 0; r < 3; ++r) {
      const engine::SolveContext context(thermal::paper_package(), res.deployment,
                                         plan.tile_powers(),
                                         tec::TecDeviceParams::chowdhury_superlattice());
      sim::ScenarioEngine engine(plan, context, sopts);
      const auto t1 = std::chrono::steady_clock::now();
      const auto summary = engine.run();
      sim_steps = summary.steps;
      sim_step_ms = std::min(sim_step_ms, ms_since(t1) / double(summary.steps));
    }
  }
  std::printf("transient scenario step on Alpha (closed loop): %.3f ms mean over "
              "%zu steps\n",
              sim_step_ms, sim_steps);

  // Continuous-profiler attribution + overhead ablation on the Alpha design
  // run, single-threaded so the per-kernel self times add up against the
  // wall clock (Σ self ≤ wall) and attribution is meaningful. The gate
  // (check_bench_regression.py) floors the self-time coverage of the wall
  // clock and caps the enabled-vs-disabled overhead.
  // Best of 40 on each side, alternating off and on: the design takes tens
  // of ms, so a few reps — or all "off" reps before all "on" reps — would let
  // scheduler noise and host drift swamp the overhead being measured.
  double prof_off_ms = 1e300, prof_on_ms = 1e300;
  obs::prof::ProfileSnapshot prof_snap;
  {
    constexpr int kProfileReps = 40;
    par::ThreadPool::set_global_threads(1);
    auto& profiler = obs::prof::Profiler::global();
    for (int r = 0; r < kProfileReps; ++r) {
      auto t1 = std::chrono::steady_clock::now();
      (void)bench::design_with_fallback({"Alpha", powers});
      prof_off_ms = std::min(prof_off_ms, ms_since(t1));

      profiler.enable();
      profiler.snapshot(true);  // fresh window: this rep only
      t1 = std::chrono::steady_clock::now();
      (void)bench::design_with_fallback({"Alpha", powers});
      const double ms = ms_since(t1);
      if (ms < prof_on_ms) {
        prof_on_ms = ms;
        prof_snap = profiler.snapshot(false);
      }
      profiler.disable();
    }
    par::ThreadPool::set_global_threads(0);
  }
  const double prof_overhead_pct =
      prof_off_ms > 0.0 ? 100.0 * (prof_on_ms - prof_off_ms) / prof_off_ms : 0.0;
  const auto prof_kernels = obs::prof::aggregate_by_name(prof_snap);
  const double prof_self_coverage =
      prof_on_ms > 0.0
          ? (double(prof_snap.total_self_ns()) * 1e-6) / prof_on_ms
          : 0.0;
  std::printf("\nprofiler attribution of the Alpha design run (1 thread): "
              "%.0f ms unprofiled vs %.0f ms profiled — %.2f%% overhead, "
              "%.0f%% of the wall clock attributed to kernels\n",
              prof_off_ms, prof_on_ms, prof_overhead_pct,
              100.0 * prof_self_coverage);
  for (const auto& k : prof_kernels) {
    if (k.self_ns == 0) continue;
    std::printf("  %-28s %8llu calls %10.2f self ms\n", k.name.c_str(),
                static_cast<unsigned long long>(k.count),
                double(k.self_ns) * 1e-6);
  }

  // Declarative-package mesh scaling (tfc::thermal::StackSpec): a 100x100
  // single-die spec — 10 000 tiles, ~70x the paper's 12x12 — must still
  // assemble, factor, steady-solve, bound lambda_m and run a full-cover
  // design interactively. The gate (check_bench_regression.py) caps all four
  // absolutely: a blown ceiling means the sparse assembly, the fill-reducing
  // ordering or the shift-invert Lanczos stopped scaling with mesh
  // resolution.
  double stack_build_ms = 1e300, stack_solve_ms = 0.0, stack_lambda_ms = 1e300;
  double stack_design_ms = 0.0;
  std::size_t stack_tiles = 0;
  {
    thermal::PackageGeometry g;
    g.tile_rows = 100;
    g.tile_cols = 100;
    auto spec = std::make_shared<const thermal::StackSpec>(
        thermal::StackSpec::single_die(g));
    stack_tiles = spec->tile_count();
    TileMask block(spec->total_tile_rows(), spec->tile_cols());
    for (std::size_t r = 48; r < 52; ++r) {
      for (std::size_t c = 48; c < 52; ++c) block.set(r, c);
    }
    for (int r = 0; r < 3; ++r) {
      const auto t1 = std::chrono::steady_clock::now();
      const engine::SolveContext ctx(spec, block, spec->tile_powers(),
                                     tec::TecDeviceParams::chowdhury_superlattice());
      stack_build_ms = std::min(stack_build_ms, ms_since(t1));
    }
    // A solve at this size refactors ~3M entries of L: a few reps suffice.
    const engine::SolveContext ctx(spec, block, spec->tile_powers(),
                                   tec::TecDeviceParams::chowdhury_superlattice());
    stack_solve_ms = backend_probe_ms(ctx, 4);
    auto system = tec::ElectroThermalSystem::assemble(
        spec, block, spec->tile_powers(),
        tec::TecDeviceParams::chowdhury_superlattice());
    {
      const auto t1 = std::chrono::steady_clock::now();
      (void)tec::runaway_limit(system);
      stack_lambda_ms = ms_since(t1);
    }
    core::DesignRequest req;
    req.spec = spec;
    req.chip_name = "stack_scale";
    req.tile_powers = spec->tile_powers();
    const auto t1 = std::chrono::steady_clock::now();
    (void)core::design_cooling_system(req);
    stack_design_ms = ms_since(t1);
  }
  std::printf("\nstack scaling (100x100 single-die spec, %zu tiles): build+factor "
              "%.1f ms | steady solve %.2f ms | lambda_m %.1f ms (sparse Lanczos) | "
              "full-cover design %.0f ms\n",
              stack_tiles, stack_build_ms, stack_solve_ms, stack_lambda_ms,
              stack_design_ms);

  {
    std::ofstream out("BENCH_runtime.json");
    out << "{\"bench\":\"runtime\",\"compiler\":\"" << TFC_BUILD_COMPILER
        << "\",\"build_type\":\"" << TFC_BUILD_TYPE << "\",\"git_describe\":\""
        << TFC_BUILD_GIT_DESCRIBE << "\",\"hardware_threads\":" << hw << ",\"chips\":{";
    for (std::size_t k = 0; k < rows.size(); ++k) {
      if (k != 0) out << ',';
      out << '"' << rows[k].name << "\":{\"runtime_ms\":" << rows[k].runtime_ms
          << ",\"tecs\":" << rows[k].tecs
          << ",\"success\":" << (rows[k].success ? "true" : "false")
          << ",\"probes\":" << rows[k].probes
          << ",\"lanczos_iters\":" << rows[k].lanczos_iters
          << ",\"refactors\":" << rows[k].refactors
          << ",\"nnz_l\":" << rows[k].nnz_l << '}';
    }
    out << "},\"worst_ms\":" << worst
        << ",\"alpha_breakdown_ms\":{\"steady_solve\":" << solve_ms
        << ",\"runaway_sparse\":" << lm_sparse_ms
        << ",\"runaway_dense\":" << lm_dense_ms
        << ",\"current_opt\":" << opt_ms << ",\"convexity_cert\":" << cert_ms
        << "},\"runaway\":{\"sparse_ms\":" << lm_sparse_ms
        << ",\"dense_ms\":" << lm_dense_ms
        << ",\"dense_over_sparse_ratio\":" << lm_ratio
        << "},\"greedy_speedup\":{\"threads_1_ms\":" << greedy_1t_ms
        << ",\"threads_8_ms\":" << greedy_8t_ms << ",\"speedup\":" << speedup
        << "},\"greedy_restamp\":{\"greedy_incremental_ms\":" << greedy_inc_ms
        << ",\"greedy_full_reassembly_ms\":" << greedy_full_ms
        << ",\"pass_incremental_ms\":" << pass_inc_ms
        << ",\"pass_full_assemble_ms\":" << pass_full_ms
        << ",\"pass_saved_ms\":" << pass_full_ms - pass_inc_ms
        << "},\"backend_probe_ms\":{\"cholesky\":" << probe_ms[0]
        << ",\"cg\":" << probe_ms[1]
        << "},\"audit_overhead\":{\"probe_unaudited_ms\":" << audit_off_ms
        << ",\"probe_audited_ms\":" << audit_on_ms
        << ",\"overhead_pct\":" << audit_overhead_pct
        << "},\"sim_step\":{\"mean_step_ms\":" << sim_step_ms
        << ",\"steps\":" << sim_steps
        << "},\"stack_scale\":{\"tiles\":" << stack_tiles
        << ",\"build_ms\":" << stack_build_ms
        << ",\"solve_ms\":" << stack_solve_ms
        << ",\"lambda_ms\":" << stack_lambda_ms
        << ",\"design_ms\":" << stack_design_ms
        << "},\"profile\":{\"wall_unprofiled_ms\":" << prof_off_ms
        << ",\"wall_profiled_ms\":" << prof_on_ms
        << ",\"overhead_pct\":" << prof_overhead_pct
        << ",\"overhead_ratio_model\":" << prof_snap.overhead_ratio
        << ",\"self_coverage\":" << prof_self_coverage << ",\"kernels\":{";
    bool first_kernel = true;
    for (const auto& k : prof_kernels) {
      if (!first_kernel) out << ',';
      first_kernel = false;
      out << '"' << k.name << "\":{\"count\":" << k.count
          << ",\"self_ms\":" << double(k.self_ns) * 1e-6
          << ",\"total_ms\":" << double(k.total_ns) * 1e-6 << '}';
    }
    out << "}}}\n";
    std::printf("wrote BENCH_runtime.json\n");
  }
  return worst < 180000.0 ? 0 : 1;
}
