/// \file bench_ablate_package.cpp
/// \brief Ablation — packaging parameters the paper inherits from HotSpot:
/// TIM thickness and die thickness. Both gate how severe hot spots get and
/// how much a TEC deployment can claw back, quantifying the calibration
/// choices documented in DESIGN.md.

#include <cstdio>
#include <memory>

#include "bench_common.h"

int main() {
  using namespace tfc;

  const auto powers = bench::worst_case_map(floorplan::alpha21364());

  std::printf("=== Packaging ablation on Alpha (limit 85 degC) ===\n\n");

  std::printf("TIM thickness (die fixed at 0.30 mm):\n");
  std::printf("%10s %12s %8s %8s %10s %12s\n", "t_tim[um]", "noTEC[degC]", "status",
              "#TECs", "Iopt[A]", "greedy[degC]");
  double swing_thin = 0.0, swing_thick = 0.0;
  for (double t_um : {20.0, 35.0, 50.0, 75.0, 100.0}) {
    thermal::PackageGeometry geometry;
    geometry.tim_thickness = t_um * 1e-6;
    core::Chip chip;
    chip.tile_powers = powers;
    chip.spec = std::make_shared<const thermal::StackSpec>(
        thermal::StackSpec::single_die(geometry));
    const auto res = core::design_with_fallback(chip, 85.0, /*run_full_cover=*/true);
    std::printf("%10.0f %12.1f %8s %8zu %10.2f %12.1f\n", t_um,
                res.peak_no_tec_celsius, res.success ? "ok" : "FAIL", res.tec_count,
                res.current, res.peak_greedy_celsius);
    const double swing = res.peak_no_tec_celsius - res.peak_greedy_celsius;
    if (t_um == 20.0) swing_thin = swing;
    if (t_um == 100.0) swing_thick = swing;
  }

  std::printf("\ndie thickness (TIM fixed at 50 um):\n");
  std::printf("%10s %12s %8s %8s %10s %12s\n", "t_die[um]", "noTEC[degC]", "status",
              "#TECs", "Iopt[A]", "greedy[degC]");
  for (double t_um : {150.0, 300.0, 500.0}) {
    thermal::PackageGeometry geometry;
    geometry.die_thickness = t_um * 1e-6;
    core::Chip chip;
    chip.tile_powers = powers;
    chip.spec = std::make_shared<const thermal::StackSpec>(
        thermal::StackSpec::single_die(geometry));
    const auto res = core::design_with_fallback(chip, 85.0, /*run_full_cover=*/true);
    std::printf("%10.0f %12.1f %8s %8zu %10.2f %12.1f\n", t_um,
                res.peak_no_tec_celsius, res.success ? "ok" : "FAIL", res.tec_count,
                res.current, res.peak_greedy_celsius);
  }

  std::printf("\ncheck: a thicker (more resistive) TIM makes the bare package hotter\n"
              "but gives the TEC path a larger edge over passive conduction — the\n"
              "regime where thin-film active cooling pays (swing %.1f degC at 20 um\n"
              "vs %.1f degC at 100 um).\n",
              swing_thin, swing_thick);
  return swing_thick > swing_thin ? 0 : 1;
}
