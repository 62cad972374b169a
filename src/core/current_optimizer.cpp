#include "core/current_optimizer.h"

#include <stdexcept>

#include "obs/obs.h"

namespace tfc::core {

CurrentOptimum optimize_current(const engine::SolveContext& context) {
  TFC_SPAN("optimize_current");
  obs::MetricsRegistry::global().counter("current_opt.calls").increment();
  const tec::ElectroThermalSystem& system = context.system();
  CurrentOptimum res;

  if (system.device_count() == 0) {
    // No devices: current has no effect; report the passive solution.
    auto op = context.solve_probe(0.0);
    if (!op) throw std::runtime_error("optimize_current: passive system not solvable");
    res.current = 0.0;
    res.converged = true;
    res.operating_point = std::move(*op);
    res.peak_tile_temperature = res.operating_point.peak_tile_temperature;
    res.tec_input_power = 0.0;
    res.objective_evaluations = 1;
    return res;
  }

  res.lambda_m = context.runaway_limit();
  // Search interval: up to just below λ_m; without a finite λ_m fall back to
  // a generous multiple of the single-device optimal pumping current.
  const double hi = res.lambda_m ? kRunawayFraction * *res.lambda_m
                                 : 4.0 * system.device().max_pumping_current(
                                             system.model().ambient() + 60.0);

  double a = 0.0, b = hi;
  while (b - a > kCurrentTol && res.objective_evaluations < kMaxEvaluations) {
    const double mid = 0.5 * (a + b);
    double slope = 0.0;
    const bool solvable = context.probe_peak(mid, &slope).has_value();
    ++res.objective_evaluations;
    if (!solvable || slope > 0.0) {
      b = mid;
    } else if (slope < 0.0) {
      a = mid;
    } else {
      a = b = mid;  // a stationary point of the convex objective
    }
  }
  res.current = 0.5 * (a + b);
  res.converged = (b - a) <= kCurrentTol;

  auto op = context.solve_probe(res.current);
  if (!op) throw std::runtime_error("optimize_current: optimum not solvable");
  ++res.objective_evaluations;
  res.operating_point = std::move(*op);
  res.peak_tile_temperature = res.operating_point.peak_tile_temperature;
  res.tec_input_power = res.operating_point.tec_input_power;

  obs::MetricsRegistry::global()
      .histogram("current_opt.objective_evaluations")
      .record(double(res.objective_evaluations));
  TFC_LOG_DEBUG("current_optimum", {"current_a", res.current},
                {"peak_c", thermal::to_celsius(res.peak_tile_temperature)},
                {"evaluations", res.objective_evaluations}, {"converged", res.converged});
  if (!res.converged) {
    TFC_LOG_WARN("current_opt_no_convergence", {"evaluations", res.objective_evaluations},
                 {"max_evaluations", kMaxEvaluations});
  }
  return res;
}

CurrentOptimum optimize_current(const tec::ElectroThermalSystem& system) {
  const engine::SolveContext context(system);
  return optimize_current(context);
}

}  // namespace tfc::core
