/// \file bench_runaway.cpp
/// \brief Reproduce the **thermal-runaway phenomenon** (Sections I, V.C.1;
/// Theorems 1-2): peak temperature vs supply current sweeping through the
/// useful range and up to λ_m, where the system matrix loses positive
/// definiteness and the steady-state temperatures diverge.
///
/// Also cross-validates λ_m — the sparse shift-invert Lanczos every path
/// uses against the paper-faithful dense bisection on the full pencil — on
/// all eleven chips, to 1e-8 relative.

#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "tec/runaway.h"

int main() {
  using namespace tfc;

  // --- sweep on the Alpha deployment ----------------------------------------
  const auto powers = bench::worst_case_map(floorplan::alpha21364());
  auto res = bench::design_with_fallback({"Alpha", powers});
  auto system = tec::ElectroThermalSystem::assemble(thermal::PackageGeometry{},
                                                    res.deployment, powers,
                                                    tec::TecDeviceParams::chowdhury_superlattice());
  const double lm = *tec::runaway_limit(system);

  std::printf("=== Thermal runaway: peak temperature vs supply current ===\n");
  std::printf("deployment: %zu TECs on the Alpha chip, lambda_m = %.2f A\n\n",
              res.tec_count, lm);
  std::printf("%10s %12s %12s\n", "i [A]", "peak [degC]", "P_TEC [W]");

  double best_peak = 1e300, best_i = 0.0;
  for (double f : {0.0, 0.01, 0.02, 0.04, 0.06, 0.1, 0.15, 0.25, 0.4, 0.6, 0.8, 0.9,
                   0.95, 0.98, 0.995, 0.999}) {
    const double i = f * lm;
    auto op = system.solve(i);
    if (!op) {
      std::printf("%10.2f   runaway (matrix not positive definite)\n", i);
      continue;
    }
    std::printf("%10.2f %12.2f %12.2f\n", i,
                thermal::to_celsius(op->peak_tile_temperature), op->tec_input_power);
    if (op->peak_tile_temperature < best_peak) {
      best_peak = op->peak_tile_temperature;
      best_i = i;
    }
  }

  auto beyond = system.solve(1.05 * lm);
  std::printf("%10.2f   %s\n", 1.05 * lm,
              beyond ? "solvable (UNEXPECTED)" : "runaway (matrix not positive definite)");

  auto near = system.solve(0.9999 * lm);
  const double blowup =
      thermal::to_celsius(near->peak_tile_temperature);  // astronomically hot
  std::printf("\nat 0.9999*lambda_m the model predicts %.3g degC — the divergence of "
              "Theorem 2.\n",
              blowup);
  std::printf("useful optimum sits at i = %.2f A (%.4f of lambda_m): over-current by "
              "10x is already catastrophic.\n\n",
              best_i, best_i / lm);

  // --- lambda_m agreement on all chips ---------------------------------------
  std::printf("=== lambda_m: sparse Lanczos vs dense bisection ===\n");
  std::printf("%-6s %14s %14s %12s\n", "chip", "sparse [A]", "dense [A]", "rel diff");
  bool all_agree = true;
  for (const auto& chip : bench::table1_chips()) {
    auto r = bench::design_with_fallback(chip);
    if (r.deployment.empty()) continue;
    auto sys = tec::ElectroThermalSystem::assemble(thermal::PackageGeometry{},
                                                   r.deployment, chip.tile_powers,
                                                   tec::TecDeviceParams::chowdhury_superlattice());
    const double a = *tec::runaway_limit(sys);
    const double b = *bench::dense_runaway_limit(sys);
    const double rel = std::abs(a - b) / a;
    all_agree = all_agree && rel < 1e-8;
    std::printf("%-6s %14.4f %14.4f %12.2e\n", chip.name.c_str(), a, b, rel);
  }
  std::printf("\nagreement: %s\n", all_agree ? "yes (rel diff < 1e-8 everywhere)" : "NO");
  return (!beyond && blowup > 1e4 && all_agree) ? 0 : 1;
}
