/// \file custom_floorplan.cpp
/// \brief Bring your own chip: define a floorplan and device from scratch,
/// design its cooling system, then run a transient turn-on simulation of the
/// chosen configuration (an extension beyond the paper's steady-state scope).
///
///   $ ./custom_floorplan

#include <cstdio>
#include <memory>

#include "core/cooling_system.h"
#include "power/power_profile.h"
#include "thermal/transient.h"

int main() {
  using namespace tfc;

  // --- a small 4 mm x 4 mm accelerator die (8 x 8 tiles) --------------------
  std::vector<floorplan::FunctionalUnit> units = {
      {"SRAM", {{0, 0, 4, 8}}, 3.2},
      {"MAC", {{4, 0, 2, 3}}, 2.6},   // dense systolic array: the hot spot
      {"VEC", {{4, 3, 2, 3}}, 1.1},
      {"IO", {{4, 6, 4, 2}}, 0.9},
      {"CTRL", {{6, 0, 2, 6}}, 1.0},
  };
  floorplan::Floorplan chip(8, 8, std::move(units));
  chip.validate();

  thermal::PackageGeometry geometry;
  geometry.tile_rows = 8;
  geometry.tile_cols = 8;
  geometry.die_width = 4e-3;
  geometry.die_height = 4e-3;

  auto profile = power::PowerProfile::from_floorplan(chip);
  std::printf("custom chip: %.1f W total, %.1f W/cm2 peak density\n", profile.total(),
              profile.peak_density_w_per_cm2(geometry.tile_area()));

  // --- a custom (more aggressive) device ------------------------------------
  tec::TecDeviceParams device = tec::TecDeviceParams::chowdhury_superlattice();
  device.seebeck *= 1.1;
  device.g_hot_contact *= 1.3;

  core::DesignRequest request;
  request.chip_name = "accel";
  request.spec = std::make_shared<const thermal::StackSpec>(
      thermal::StackSpec::single_die(geometry));
  request.tile_powers = profile.tile_powers();
  request.device = device;
  request.theta_limit_celsius = 70.0;

  auto result = core::design_cooling_system(request);
  std::printf("\n%s\n%s\n\ndeployment:\n%s\n", core::table_header().c_str(),
              core::format_table_row(result).c_str(),
              core::deployment_map(result.deployment).c_str());

  // --- transient turn-on simulation -----------------------------------------
  // Start from the hot passive steady state, switch the TECs on at t = 0 with
  // the optimized current, and watch the peak tile temperature settle.
  auto system = tec::ElectroThermalSystem::assemble(geometry, result.deployment,
                                                    request.tile_powers, device);
  const auto& net = system.model().network();

  // Passive steady state (TECs present but idle) as the initial condition.
  auto idle = system.solve(0.0);

  // Backward-Euler integration of the driven system.
  const double dt = 2e-3;  // 2 ms steps: die/TIM dynamics resolved
  thermal::TransientSolver stepper(system.system_matrix(result.current),
                                   net.capacitance_vector(), dt);
  auto rhs = system.rhs(result.current);

  std::printf("transient turn-on at I = %.2f A:\n", result.current);
  std::printf("%10s %14s\n", "t [ms]", "peak [degC]");
  linalg::Vector theta = idle->theta;
  int step = 0;
  for (int checkpoint : {0, 5, 10, 25, 50, 125, 250, 500}) {
    for (; step < checkpoint; ++step) theta = stepper.step(theta, rhs);
    std::printf("%10.0f %14.2f\n", double(checkpoint) * dt * 1e3,
                thermal::to_celsius(system.model().peak_tile_temperature(theta)));
  }
  // The die settles within tens of milliseconds; the heat sink then absorbs
  // the extra TEC supply power on its own ~minute timescale. Integrate the
  // slow tail with a coarser step to show full convergence.
  thermal::TransientSolver slow(system.system_matrix(result.current),
                                net.capacitance_vector(), 0.5);
  for (int s = 0; s < 1200; ++s) theta = slow.step(theta, rhs);  // +600 s
  std::printf("%10s %14.2f   (sink settled)\n", "600000",
              thermal::to_celsius(system.model().peak_tile_temperature(theta)));
  auto settled = system.solve(result.current);
  std::printf("steady-state target: %.2f degC\n",
              thermal::to_celsius(settled->peak_tile_temperature));
  return result.success ? 0 : 1;
}
