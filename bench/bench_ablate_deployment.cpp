/// \file bench_ablate_deployment.cpp
/// \brief Ablation A1 — deployment strategy. Generalizes Table I's SwingLoss
/// column: greedy vs threshold-k (k hottest tiles) vs full cover on the
/// Alpha chip, each with its own optimal shared current.
///
/// Claim under test: the greedy over-limit-driven deployment is the sweet
/// spot — small threshold budgets under-cool, and covering everything
/// injects so much supply heat that the achievable peak *rises*
/// ("deploying an excessive number of TEC devices ... might adversely
/// result in the overheating of the chip").

#include <cstdio>

#include "bench_common.h"

int main() {
  using namespace tfc;

  const auto powers = bench::worst_case_map(floorplan::alpha21364());
  const thermal::PackageGeometry geom;
  const auto device = tec::TecDeviceParams::chowdhury_superlattice();

  auto res = bench::design_with_fallback({"Alpha", powers});
  std::printf("=== Deployment-strategy ablation on Alpha (no-TEC peak %.1f degC) ===\n\n",
              res.peak_no_tec_celsius);
  std::printf("%-14s %7s %8s %9s %11s\n", "strategy", "#TECs", "Iopt[A]", "PTEC[W]",
              "peak[degC]");
  std::printf("%-14s %7zu %8.2f %9.2f %11.2f\n", "greedy", res.tec_count, res.current,
              res.tec_power, res.peak_greedy_celsius);

  double best_threshold_peak = 1e300;
  for (std::size_t k : {4u, 8u, 11u, 16u, 24u, 36u, 72u, 144u}) {
    auto r = (k == 144u) ? core::full_cover(thermal::paper_package(), powers, device)
                         : core::threshold_cover(geom, powers, device, k);
    const double peak = thermal::to_celsius(r.min_peak_temperature);
    std::printf("%-14s %7zu %8.2f %9.2f %11.2f\n",
                (k == 144u) ? "full-cover" : ("threshold-" + std::to_string(k)).c_str(),
                r.deployment.count(), r.optimum.current, r.optimum.tec_input_power, peak);
    if (k <= 36u) best_threshold_peak = std::min(best_threshold_peak, peak);
  }

  auto full = core::full_cover(thermal::paper_package(), powers, device);
  const double full_peak = thermal::to_celsius(full.min_peak_temperature);
  const bool greedy_wins = res.peak_greedy_celsius <= best_threshold_peak + 0.3 &&
                           res.peak_greedy_celsius < full_peak;
  std::printf("\ngreedy peak %.2f vs best threshold %.2f vs full cover %.2f: "
              "excess coverage costs %.1f degC of swing.\n",
              res.peak_greedy_celsius, best_threshold_peak, full_peak,
              full_peak - res.peak_greedy_celsius);
  return greedy_wins ? 0 : 1;
}
