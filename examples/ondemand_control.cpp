/// \file ondemand_control.cpp
/// \brief On-demand cooling in action: a bursty workload on the Alpha chip,
/// a hysteresis controller switching the TEC string, and the resulting
/// peak-temperature / energy trade against always-on operation. The
/// hysteresis switch is a core::DtmController policy (no throttling, current
/// levels {0, I_on}) that sim::ScenarioEngine consults every step.
///
///   $ ./ondemand_control

#include <cstdio>

#include "core/cooling_system.h"
#include "engine/solve_context.h"
#include "floorplan/alpha21364.h"
#include "power/workload.h"
#include "sim/scenario.h"

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

  const engine::SolveContext context(req.spec, design.deployment, hot, req.device);

  // Bursty workload: 1 s bursts of every unit at its worst case over a 40%
  // background. Tick 0 holds the time average (70%): the engine
  // equilibrates there, so the slow spreader and sink start warm.
  const std::size_t steps = 3000;
  power::ActivityTrace trace{"bursty", {}};
  for (std::size_t u = 0; u < chip.units().size(); ++u) {
    std::vector<double> row(steps);
    for (std::size_t s = 0; s < steps; ++s) row[s] = (s / 500) % 2 == 1 ? 1.0 : 0.4;
    row[0] = 0.7;
    trace.utilization.push_back(std::move(row));
  }

  // Hysteresis: on above 85 degC, off below 83 degC, never throttle.
  sim::ScenarioOptions opts;
  opts.dt = 2e-3;
  opts.steps = steps;
  opts.control_every = 1;
  opts.frame_every = 1;
  opts.policy.theta_limit = thermal::to_kelvin(85.0);
  opts.policy.guard_band = opts.policy.theta_limit - thermal::to_kelvin(83.0);
  opts.policy.min_scale = 1.0;
  opts.policy.current_levels = {0.0, design.current};

  sim::ScenarioEngine engine(chip, context, trace, opts);
  std::size_t switches = 0;
  bool was_on = false;
  std::printf("%8s %12s %5s\n", "t [s]", "peak [degC]", "TEC");
  const auto r = engine.run([&](const sim::Frame& frame) {
    const bool on = frame.current_a > 0.0;
    if (frame.step > 0 && on != was_on) ++switches;
    was_on = on;
    if (frame.step % 200 == 0) {
      std::printf("%8.2f %12.2f %5s\n", double(frame.step) * opts.dt,
                  thermal::to_celsius(frame.peak_k), on ? "on" : "off");
    }
    return true;
  });

  auto always = context.system().solve(design.current);
  const double e_always = always->tec_input_power * opts.dt * double(opts.steps);
  std::printf("\nmax peak %.2f degC | duty cycle %.1f%% | switches %zu\n",
              thermal::to_celsius(r.max_peak_k), 100.0 * r.duty_cycle, switches);
  std::printf("TEC energy: %.2f J on-demand vs %.2f J always-on over %.0f s\n",
              r.tec_energy_j, e_always, opts.dt * double(opts.steps));
  return 0;
}
