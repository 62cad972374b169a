/// \file ondemand_control.cpp
/// \brief On-demand cooling in action: a bursty workload on the Alpha chip,
/// a hysteresis controller switching the TEC string, and the resulting
/// peak-temperature / energy trade against always-on and never-on operation.
///
///   $ ./ondemand_control

#include <cstdio>

#include "core/cooling_system.h"
#include "core/on_demand.h"
#include "floorplan/alpha21364.h"
#include "power/workload.h"

int main() {
  using namespace tfc;

  // Design the deployment once (the paper's flow).
  auto chip = floorplan::alpha21364();
  power::WorkloadSynthesizer synth(chip);
  auto hot = power::worst_case_profile(chip, synth.synthesize_suite(8)).tile_powers();
  core::DesignRequest req;
  req.tile_powers = hot;
  req.run_full_cover = false;
  auto design = core::design_cooling_system(req);
  std::printf("deployment: %zu TECs, I_on = %.2f A\n\n", design.tec_count,
              design.current);

  auto system = tec::ElectroThermalSystem::assemble(req.spec, design.deployment,
                                                    hot, req.device);

  // Bursty workload: 1 s bursts of the worst case over a 40% background.
  linalg::Vector idle = hot;
  idle *= 0.4;
  const auto workload = [&](std::size_t s) -> linalg::Vector {
    return (s / 500) % 2 == 1 ? hot : idle;
  };
  linalg::Vector mean = hot;
  mean *= 0.7;

  core::OnDemandOptions opts;
  opts.on_current = design.current;
  opts.theta_on = thermal::to_kelvin(85.0);
  opts.theta_off = thermal::to_kelvin(83.0);
  opts.dt = 2e-3;
  opts.steps = 3000;
  opts.equilibrate_at = mean;

  auto r = core::simulate_on_demand(system, workload, opts);

  auto always = system.solve(opts.on_current);
  const double e_always = always->tec_input_power * opts.dt * double(opts.steps);

  std::printf("%8s %12s %5s\n", "t [s]", "peak [degC]", "TEC");
  for (std::size_t s = 0; s < opts.steps; s += 200) {
    std::printf("%8.2f %12.2f %5s\n", double(s) * opts.dt,
                thermal::to_celsius(r.peak_timeline[s]), r.tec_on[s] ? "on" : "off");
  }
  std::printf("\nmax peak %.2f degC | duty cycle %.1f%% | switches %zu\n",
              thermal::to_celsius(r.max_peak), 100.0 * r.duty_cycle, r.switch_count);
  std::printf("TEC energy: %.2f J on-demand vs %.2f J always-on over %.0f s\n",
              r.tec_energy, e_always, opts.dt * double(opts.steps));
  return 0;
}
