/// \file alpha_cooling.cpp
/// \brief Full walkthrough of the Section VI.A experiment on the
/// Alpha-21364-like chip: floorplan statistics, worst-case power synthesis,
/// the passive thermal field, greedy TEC deployment with iteration history,
/// the full-cover comparison, and the convexity certificate.
///
///   $ ./alpha_cooling

#include <cstdio>

#include "core/cooling_system.h"
#include "core/response.h"
#include "floorplan/alpha21364.h"
#include "power/workload.h"
#include "tec/runaway.h"

namespace {

void print_temperature_map(const tfc::linalg::Vector& tile_temps, std::size_t rows,
                           std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      std::printf("%6.1f", tfc::thermal::to_celsius(tile_temps[r * cols + c]));
    }
    std::printf("\n");
  }
}

}  // namespace

int main() {
  using namespace tfc;

  // --- the chip -------------------------------------------------------------
  auto chip = floorplan::alpha21364();
  const double tile_area = thermal::PackageGeometry{}.tile_area();
  std::printf("== Alpha-21364-like chip (65 nm, 6 mm x 6 mm, 12 x 12 tiles) ==\n");
  std::printf("units: %zu, total worst-case power: %.1f W\n", chip.units().size(),
              chip.total_power());
  std::printf("hot cluster: %.1f%% of power on %.1f%% of area\n",
              100.0 * chip.power_fraction(floorplan::alpha21364_hot_units()),
              100.0 * chip.area_fraction(floorplan::alpha21364_hot_units()));
  for (std::size_t u = 0; u < chip.units().size(); ++u) {
    const auto& unit = chip.units()[u];
    std::printf("  %-8s %2zu tiles  %6.3f W  %7.1f W/cm2\n", unit.name.c_str(),
                unit.tile_count(), unit.peak_power,
                chip.unit_power_density(u, tile_area) * 1e-4);
  }

  // --- worst-case power map (SPEC2000/M5/Wattch stand-in) --------------------
  power::WorkloadSynthesizer synth(chip);
  auto traces = synth.synthesize_suite(8);
  auto profile = power::worst_case_profile(chip, traces);
  std::printf("\nworst-case map from %zu synthetic benchmarks (+20%% margin): "
              "%.1f W total, %.1f W/cm2 peak density\n",
              traces.size(), profile.total(), profile.peak_density_w_per_cm2(tile_area));

  // --- passive thermal field -------------------------------------------------
  core::DesignRequest request;
  request.chip_name = "Alpha21364";
  request.tile_powers = profile.tile_powers();
  request.theta_limit_celsius = 85.0;
  request.run_convexity_certificate = true;

  auto passive = tec::ElectroThermalSystem::assemble(request.spec, TileMask(),
                                                     request.tile_powers, request.device);
  auto op0 = passive.solve(0.0);
  std::printf("\nsteady state without TECs (degC):\n");
  print_temperature_map(op0->tile_temperatures, 12, 12);

  // --- design ----------------------------------------------------------------
  auto result = core::design_cooling_system(request);
  std::printf("\n%s\n%s\n", core::table_header().c_str(),
              core::format_table_row(result).c_str());
  std::printf("\ngreedy iterations:\n");
  std::printf("  it  #TECs  over-limit  I[A]    peak[C]\n");

  // Re-run the raw algorithm to show the iteration history.
  auto raw = core::greedy_deploy(request.spec, request.tile_powers, request.device,
                                 thermal::to_kelvin(request.theta_limit_celsius));
  for (std::size_t k = 0; k < raw.iterations.size(); ++k) {
    const auto& it = raw.iterations[k];
    std::printf("  %2zu  %5zu  %10zu  %5.2f  %8.2f\n", k + 1, it.tecs_deployed,
                it.tiles_over_limit, it.current,
                thermal::to_celsius(it.peak_tile_temperature));
  }

  std::printf("\nTEC deployment (Figure 7(b) analogue):\n%s",
              core::deployment_map(result.deployment).c_str());

  // --- final thermal field -----------------------------------------------------
  auto cooled = tec::ElectroThermalSystem::assemble(request.spec, result.deployment,
                                                    request.tile_powers, request.device);
  auto op1 = cooled.solve(result.current);
  std::printf("\nsteady state with TECs at I = %.2f A (degC):\n", result.current);
  print_temperature_map(op1->tile_temperatures, 12, 12);

  std::printf("\nfull-cover comparison: min peak %.1f C at %.2f A using %.1f W "
              "(SwingLoss %.1f C)\n",
              result.full_cover_min_peak_celsius, result.full_cover_current,
              result.full_cover_power, result.swing_loss_celsius);

  if (result.convexity) {
    std::printf("Theorem-4 convexity certificate: %s (min functional %.3g, λm %.1f A)\n",
                result.convexity->certified ? "CERTIFIED" : "NOT certified",
                result.convexity->min_functional, result.convexity->lambda_m);
  }
  std::printf("design runtime: %.0f ms\n", result.runtime_ms);
  return result.success ? 0 : 1;
}
