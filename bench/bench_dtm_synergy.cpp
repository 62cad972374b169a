/// \file bench_dtm_synergy.cpp
/// \brief Extension study — the introduction's motivating vision: "the
/// active cooling system, the thermal monitoring system, and the
/// architecture-level thermal management mechanisms can operate
/// synergistically to achieve enhanced performance under a safe operating
/// temperature."
///
/// A DVFS-style throttling controller enforces a temperature limit on the
/// Alpha chip, with and without the greedy TEC deployment. The retained
/// power-weighted activity is the performance proxy: the TECs absorb part of
/// the thermal emergency, so the controller throttles less.

#include <cstdio>

#include "bench_common.h"
#include "core/dtm.h"

int main() {
  using namespace tfc;

  auto chip = floorplan::alpha21364();
  const auto powers = bench::worst_case_map(chip);
  const auto spec = thermal::paper_package();
  const auto device = tec::TecDeviceParams::chowdhury_superlattice();
  auto design = bench::design_with_fallback({"Alpha", powers});

  std::printf("=== DTM x active cooling synergy on Alpha (%zu TECs at %.2f A) ===\n\n",
              design.tec_count, design.current);
  std::printf("%10s %18s %18s %12s\n", "limit[C]", "perf (no TEC)", "perf (TEC)",
              "gain");

  double total_gain = 0.0;
  std::size_t rows = 0;
  bool monotone_ok = true;
  double prev_passive = 0.0;
  for (double limit : {92.0, 90.0, 88.0, 86.0, 85.0, 84.0, 82.0, 80.0}) {
    core::DtmPolicyOptions passive_policy;
    passive_policy.theta_limit = thermal::to_kelvin(limit);
    core::DtmPolicyOptions active_policy = passive_policy;
    active_policy.current_levels = {design.current};
    auto passive = core::simulate_dtm(chip, spec, device, TileMask(), passive_policy);
    auto active =
        core::simulate_dtm(chip, spec, device, design.deployment, active_policy);
    const double gain = active.performance - passive.performance;
    std::printf("%10.0f %18.3f %18.3f %12.3f\n", limit, passive.performance,
                active.performance, gain);
    total_gain += gain;
    ++rows;
    if (rows > 1 && passive.performance > prev_passive + 1e-9) monotone_ok = false;
    prev_passive = passive.performance;
  }

  std::printf("\naverage performance retained: +%.1f%% with active cooling.\n",
              100.0 * total_gain / double(rows));
  std::printf("Tighter limits throttle the passive chip progressively (monotone: %s);\n"
              "the TEC deployment shifts the whole frontier upward.\n",
              monotone_ok ? "yes" : "NO");
  return (total_gain > 0.0 && monotone_ok) ? 0 : 1;
}
