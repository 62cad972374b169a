#include "core/current_optimizer.h"

#include <limits>
#include <stdexcept>
#include <vector>

#include "obs/obs.h"
#include "par/parallel.h"

namespace tfc::core {

namespace {

/// Iterated section search on [0, hi]: each round probes kSectionProbes
/// evenly spaced currents and keeps the two gaps around the best one.
CurrentOptimum section_search(const engine::SolveContext& context, double hi) {
  CurrentOptimum res;
  constexpr std::size_t k = kSectionProbes;
  double a = 0.0, b = hi;
  std::vector<double> xs(k);
  while (b - a > kCurrentTol && res.objective_evaluations + k <= kMaxEvaluations) {
    for (std::size_t j = 0; j < k; ++j) {
      xs[j] = a + (b - a) * double(j + 1) / double(k + 1);
    }
    // Objective: peak silicon tile temperature; +∞ past λ_m.
    const std::vector<double> fs = par::parallel_map(k, [&](std::size_t j) {
      auto peak = context.probe_peak(xs[j]);
      return peak ? *peak : std::numeric_limits<double>::infinity();
    });
    res.objective_evaluations += k;
    // First minimum wins: a deterministic tie-break, and for a convex
    // objective the left-most minimizer of the sampled values.
    std::size_t m = 0;
    for (std::size_t j = 1; j < k; ++j) {
      if (fs[j] < fs[m]) m = j;
    }
    a = (m == 0) ? a : xs[m - 1];
    b = (m == k - 1) ? b : xs[m + 1];
  }
  res.current = 0.5 * (a + b);
  res.converged = (b - a) <= kCurrentTol;
  return res;
}

}  // namespace

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

  const CurrentOptimum inner = section_search(context, hi);
  res.current = inner.current;
  res.converged = inner.converged;
  res.objective_evaluations = inner.objective_evaluations;

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
