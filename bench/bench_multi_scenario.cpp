/// \file bench_multi_scenario.cpp
/// \brief Extension study — scenario-aware design vs the paper's folded
/// worst case.
///
/// The paper folds the benchmark suite into one per-unit worst-case map
/// (maxima that never co-occur) before designing. Designing against the
/// per-benchmark scenario *set* guarantees the same limit for every
/// benchmark while potentially deploying fewer devices. The synthesized
/// suite keeps each unit's worst case reachable in some benchmark, so the
/// fold equals the paper's map exactly — the comparison isolates the
/// design-method difference.

#include <cstdio>

#include "bench_common.h"
#include "core/multi_scenario.h"

int main() {
  using namespace tfc;

  auto chip = floorplan::alpha21364();
  // Realistic suite: per-unit worst cases differ across benchmarks (no
  // forced full-activity touch), as in real trace collections.
  power::WorkloadOptions wl;
  wl.guarantee_worst_case = false;
  wl.burst_probability = 0.004;
  power::WorkloadSynthesizer synth(chip, wl);
  auto traces = synth.synthesize_suite(8);

  // Folded (paper) map and per-benchmark scenarios.
  const auto folded = power::worst_case_profile(chip, traces).tile_powers();
  auto profiles = power::per_benchmark_profiles(chip, traces);
  std::vector<linalg::Vector> scenarios;
  scenarios.reserve(profiles.size());
  for (const auto& p : profiles) scenarios.push_back(p.tile_powers());

  const auto spec = thermal::paper_package();
  const auto device = tec::TecDeviceParams::chowdhury_superlattice();
  const double theta_max = thermal::to_kelvin(85.0);

  auto fold_res = core::greedy_deploy(spec, folded, device, theta_max);
  auto multi_res = core::greedy_deploy_multi(spec, scenarios, device, theta_max);

  std::printf("=== Scenario-aware design vs folded worst case (Alpha, 85 degC) ===\n\n");
  std::printf("%-22s %8s %10s %14s %12s\n", "design", "#TECs", "Iopt[A]",
              "worst peak[C]", "status");
  std::printf("%-22s %8zu %10.2f %14.2f %12s\n", "folded (paper)",
              fold_res.deployment.count(), fold_res.current,
              thermal::to_celsius(fold_res.peak_tile_temperature),
              fold_res.success ? "ok" : "FAILED");
  std::printf("%-22s %8zu %10.2f %14.2f %12s\n", "scenario-aware",
              multi_res.deployment.count(), multi_res.current,
              thermal::to_celsius(multi_res.peak_tile_temperature),
              multi_res.success ? "ok" : "FAILED");

  std::printf("\nper-benchmark peaks of the scenario-aware design:\n");
  for (std::size_t k = 0; k < multi_res.scenario_peaks.size(); ++k) {
    std::printf("  %s: %.2f degC\n", traces[k].benchmark.c_str(),
                thermal::to_celsius(multi_res.scenario_peaks[k]));
  }

  // Cross-check: the scenario-aware deployment must also keep every single
  // benchmark under the limit (it does by construction; verify numerically),
  // and it never needs more devices than the folded design.
  bool peaks_ok = true;
  for (double p : multi_res.scenario_peaks) peaks_ok = peaks_ok && p <= theta_max;
  const bool not_larger = multi_res.deployment.count() <= fold_res.deployment.count();
  std::printf("\nall per-benchmark peaks under the limit: %s; deployment size %zu vs "
              "%zu (never larger: %s)\n",
              peaks_ok ? "yes" : "NO", multi_res.deployment.count(),
              fold_res.deployment.count(), not_larger ? "yes" : "NO");
  std::printf("(The folded design guards a map no single benchmark produces; the\n"
              "scenario-aware design guards exactly the suite. On this chip the hot\n"
              "cluster dominates every benchmark, so the deployments coincide — the\n"
              "guarantee comes for free; suites with disjoint stress patterns shrink\n"
              "the deployment, as the unit tests demonstrate on synthetic scenarios.)\n");
  return (fold_res.success && multi_res.success && peaks_ok && not_larger) ? 0 : 1;
}
