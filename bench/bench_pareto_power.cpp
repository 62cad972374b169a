/// \file bench_pareto_power.cpp
/// \brief Extension study — the cooling/power trade-off frontier.
///
/// The paper reports one operating point per chip (deployment + I_opt).
/// Here we sweep deployment sizes (k hottest tiles) on the Alpha chip, each
/// with its own optimal current, and chart achievable peak temperature vs
/// TEC electrical power — making the "excessive deployment wastes power AND
/// cooling" effect quantitative, with the greedy design placed on the chart.

#include <cstdio>

#include "bench_common.h"

int main() {
  using namespace tfc;

  const auto powers = bench::worst_case_map(floorplan::alpha21364());
  const auto spec = thermal::paper_package();
  const auto device = tec::TecDeviceParams::chowdhury_superlattice();
  auto design = bench::design_with_fallback({"Alpha", powers});

  std::printf("=== Cooling vs TEC power frontier on Alpha ===\n\n");
  std::printf("%8s %10s %10s %12s\n", "#TECs", "Iopt[A]", "PTEC[W]", "peak[degC]");

  double best_peak = 1e300;
  std::size_t best_k = 0;
  for (std::size_t k : {1u, 2u, 4u, 6u, 8u, 11u, 15u, 20u, 28u, 40u, 60u, 90u, 144u}) {
    auto r = (k == 144u) ? core::full_cover(spec, powers, device)
                         : core::threshold_cover(spec, powers, device, k);
    const double peak = thermal::to_celsius(r.min_peak_temperature);
    std::printf("%8zu %10.2f %10.2f %12.2f\n", r.deployment.count(), r.optimum.current,
                r.optimum.tec_input_power, peak);
    if (peak < best_peak) {
      best_peak = peak;
      best_k = k;
    }
  }
  std::printf("%8s %10.2f %10.2f %12.2f   <- greedy design\n", "greedy", design.current,
              design.tec_power, design.peak_greedy_celsius);

  std::printf("\nfrontier minimum at k = %zu tiles (%.2f degC); beyond it, additional\n"
              "devices raise the achievable peak — the diminishing-then-negative\n"
              "return the paper's SwingLoss column captures.\n",
              best_k, best_peak);
  const bool interior_optimum = best_k > 1 && best_k < 144;
  const bool greedy_near_frontier = design.peak_greedy_celsius <= best_peak + 1.0;
  return (interior_optimum && greedy_near_frontier) ? 0 : 1;
}
