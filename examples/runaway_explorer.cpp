/// \file runaway_explorer.cpp
/// \brief Explore the thermal-runaway phenomenon (Sections I and V.C.1).
///
/// Deploys TECs on the Alpha chip's hot cluster, computes the runaway limit
/// λ_m two ways (the sparse shift-invert Lanczos every design uses and the
/// paper-faithful dense bisection), then sweeps the supply current: the
/// peak temperature first *drops* (Peltier pumping wins), then rises (Joule
/// heating wins), then blows up as i → λ_m — exactly the h_kl(i) divergence
/// of Theorem 2.
///
///   $ ./runaway_explorer

#include <cstdio>

#include "core/current_optimizer.h"
#include "floorplan/alpha21364.h"
#include "linalg/eigen.h"
#include "power/workload.h"
#include "tec/runaway.h"

int main() {
  using namespace tfc;

  auto chip = floorplan::alpha21364();
  power::WorkloadSynthesizer synth(chip);
  auto powers = power::worst_case_profile(chip, synth.synthesize_suite(8)).tile_powers();

  // TECs on the integer cluster (rows 3-5, cols 3-8).
  TileMask deployment(12, 12);
  for (std::size_t r = 3; r <= 5; ++r) {
    for (std::size_t c = 3; c <= 8; ++c) deployment.set(r, c);
  }
  auto system = tec::ElectroThermalSystem::assemble(thermal::PackageGeometry{},
                                                    deployment, powers,
                                                    tec::TecDeviceParams::chowdhury_superlattice());

  auto lm_sparse = tec::runaway_limit(system);
  auto lm_dense = linalg::pencil_smallest_positive_eigenvalue(
      system.matrix_g().to_dense(), linalg::DenseMatrix::diagonal(system.d_diagonal()));
  std::printf("runaway limit lambda_m: %.4f A (sparse Lanczos), %.4f A (dense "
              "bisection)\n",
              *lm_sparse, *lm_dense);

  auto opt = core::optimize_current(system);
  std::printf("optimal current: %.2f A -> peak %.2f degC (TEC power %.2f W)\n\n",
              opt.current, thermal::to_celsius(opt.peak_tile_temperature),
              opt.tec_input_power);

  std::printf("%10s %12s %12s %14s\n", "i [A]", "peak [degC]", "P_TEC [W]",
              "device COP");
  for (double frac :
       {0.0, 0.01, 0.02, 0.03, 0.05, 0.08, 0.12, 0.2, 0.3, 0.5, 0.7, 0.85, 0.95,
        0.99, 0.999}) {
    const double i = frac * *lm_sparse;
    auto op = system.solve(i);
    if (!op) {
      std::printf("%10.3f  (not positive definite: thermal runaway)\n", i);
      continue;
    }
    // Average device COP at this operating point.
    double cop = 0.0;
    const auto& hot = system.model().hot_nodes();
    const auto& cold = system.model().cold_nodes();
    for (std::size_t j = 0; j < hot.size(); ++j) {
      cop += system.device().cop(i, op->theta[cold[j]], op->theta[hot[j]]);
    }
    cop /= double(hot.size());
    std::printf("%10.3f %12.2f %12.2f %14.3f\n", i,
                thermal::to_celsius(op->peak_tile_temperature), op->tec_input_power, cop);
  }

  std::printf("\npast the limit:\n");
  for (double frac : {1.01, 1.5}) {
    const double i = frac * *lm_sparse;
    auto op = system.solve(i);
    std::printf("  i = %.2f A: %s\n", i,
                op ? "solvable (unexpected!)" : "matrix not positive definite — runaway");
  }
  return 0;
}
