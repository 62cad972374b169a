/// \file bench_ondemand.cpp
/// \brief Extension study — on-demand vs always-on cooling under a bursty
/// workload.
///
/// The motivating property of thin-film TECs ("tunable cooling at a fine
/// granularity ... on-demand") quantified on the Alpha deployment: a
/// hysteresis controller holds the peak temperature while running the
/// devices only a fraction of the time, at a fraction of the always-on
/// electrical energy. The controller is core::DtmController with throttling
/// off (min_scale 1) and current levels {0, I_on}, driven every step by
/// sim::ScenarioEngine.

#include <cstdio>

#include "bench_common.h"
#include "engine/solve_context.h"
#include "sim/scenario.h"

using namespace tfc;

namespace {

/// Per-step record of one on-demand run.
struct OnDemandRun {
  std::vector<double> peak_timeline;  ///< end-of-step peak [K]
  std::vector<bool> tec_on;
  double duty_cycle = 0.0;
  double tec_energy = 0.0;  ///< [J]
  double max_peak = 0.0;    ///< [K]
  std::size_t switch_count = 0;
};

/// Integrate one step per tick of \p trace with the TEC string switched on at
/// \p i_on above \p theta_on and off below \p theta_off.
OnDemandRun run_on_demand(const floorplan::Floorplan& plan,
                          const engine::SolveContext& context,
                          const power::ActivityTrace& trace, double i_on,
                          double theta_on, double theta_off, double dt) {
  sim::ScenarioOptions opts;
  opts.dt = dt;
  opts.steps = trace.length();
  opts.control_every = 1;
  opts.frame_every = 1;
  opts.policy.theta_limit = theta_on;
  opts.policy.guard_band = theta_on - theta_off;
  opts.policy.min_scale = 1.0;
  opts.policy.current_levels = {0.0, i_on};

  OnDemandRun r;
  sim::ScenarioEngine engine(plan, context, trace, opts);
  const auto summary = engine.run([&](const sim::Frame& frame) {
    const bool on = frame.current_a > 0.0;
    if (!r.tec_on.empty() && on != r.tec_on.back()) ++r.switch_count;
    r.peak_timeline.push_back(frame.peak_k);
    r.tec_on.push_back(on);
    return true;
  });
  r.duty_cycle = summary.duty_cycle;
  r.tec_energy = summary.tec_energy_j;
  r.max_peak = summary.max_peak_k;
  return r;
}

}  // namespace

int main() {
  const auto plan = floorplan::alpha21364();
  const auto hot = bench::worst_case_map(plan);
  const auto device = tec::TecDeviceParams::chowdhury_superlattice();

  auto design = bench::design_with_fallback({"Alpha", hot});
  const engine::SolveContext context(thermal::paper_package(), design.deployment, hot,
                                     device);

  const double i_on = design.current;
  const double theta_on = thermal::to_kelvin(85.0);
  const double theta_off = thermal::to_kelvin(83.5);
  const double dt = 2e-3;
  const std::size_t steps = 4000;  // 8 s of bursty execution

  // Workload: alternating 1.6 s idle phases at 35% activity and worst-case
  // bursts, starting idle so the controller meets the first burst from a
  // cool state. Tick 0 holds the workload's time average instead: the
  // engine equilibrates there, so the spreader and sink start at their
  // sustained operating temperatures (their time constants dwarf the burst
  // length), while the die rides the bursts.
  const double idle = 0.35;
  power::ActivityTrace trace{"ondemand", {}};
  for (std::size_t u = 0; u < plan.units().size(); ++u) {
    std::vector<double> row(steps);
    for (std::size_t s = 0; s < steps; ++s) row[s] = (s / 800) % 2 == 0 ? idle : 1.0;
    row[0] = 0.5 * (1.0 + idle);
    trace.utilization.push_back(std::move(row));
  }

  const auto r = run_on_demand(plan, context, trace, i_on, theta_on, theta_off, dt);

  auto always_on = context.system().solve(i_on);
  const double always_energy = always_on->tec_input_power * dt * double(steps);

  std::printf("=== On-demand cooling on Alpha (%zu TECs, I_on = %.2f A) ===\n\n",
              design.tec_count, i_on);
  std::printf("horizon: %.1f s, bursty workload (worst-case / 35%% idle phases)\n",
              dt * double(steps));
  std::printf("controller band: on > %.1f degC, off < %.1f degC\n\n",
              thermal::to_celsius(theta_on), thermal::to_celsius(theta_off));
  std::printf("max peak: %.2f degC (limit band respected: %s)\n",
              thermal::to_celsius(r.max_peak),
              r.max_peak < theta_on + 1.0 ? "yes" : "NO");
  std::printf("duty cycle: %.1f%%, switches: %zu\n", 100.0 * r.duty_cycle,
              r.switch_count);
  std::printf("TEC energy: %.2f J on-demand vs %.2f J always-on (%.0f%% saved)\n",
              r.tec_energy, always_energy,
              100.0 * (1.0 - r.tec_energy / always_energy));

  std::printf("\npeak-temperature timeline (sampled):\n%10s %12s %6s\n", "t [s]",
              "peak [degC]", "TEC");
  for (std::size_t s = 0; s < steps; s += 250) {
    std::printf("%10.2f %12.2f %6s\n", double(s) * dt,
                thermal::to_celsius(r.peak_timeline[s]), r.tec_on[s] ? "on" : "off");
  }

  // Hysteresis-band sensitivity: one simulation per band width.
  std::printf("\nhysteresis-band sweep:\n%10s %12s %10s %10s %8s\n", "band [K]",
              "peak [degC]", "duty [%]", "energy [J]", "switch");
  for (double band : {0.5, 1.0, 1.5, 2.0, 3.0}) {
    // 1 degC step == 1 K.
    const auto sweep =
        run_on_demand(plan, context, trace, i_on, theta_on, theta_on - band, dt);
    std::printf("%10.1f %12.2f %10.1f %10.2f %8zu\n", band,
                thermal::to_celsius(sweep.max_peak), 100.0 * sweep.duty_cycle,
                sweep.tec_energy, sweep.switch_count);
  }

  const bool ok = r.duty_cycle > 0.0 && r.duty_cycle < 1.0 &&
                  r.tec_energy < always_energy && r.max_peak < theta_on + 1.5;
  return ok ? 0 : 1;
}
