#include "core/current_optimizer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/response.h"
#include "linalg/minimize.h"
#include "obs/obs.h"
#include "par/parallel.h"

namespace tfc::core {

namespace {

const char* method_name(CurrentMethod method) {
  switch (method) {
    case CurrentMethod::kGoldenSection: return "golden_section";
    case CurrentMethod::kBrent: return "brent";
    case CurrentMethod::kGradientDescent: return "gradient_descent";
    case CurrentMethod::kParallelSection: return "parallel_section";
  }
  return "?";
}

}  // namespace

namespace {

/// Objective: peak silicon tile temperature at current i; +∞ past λ_m.
/// A zero-allocation workspace-pooled probe — the full operating point is
/// only materialized when \p op_out is requested.
double objective(const engine::SolveContext& context, double i, std::size_t& evals,
                 tec::OperatingPoint* op_out = nullptr) {
  TFC_SPAN("opt_objective");
  ++evals;
  if (op_out != nullptr) {
    auto op = context.solve_probe(i);
    if (!op) return std::numeric_limits<double>::infinity();
    *op_out = std::move(*op);
    return op_out->peak_tile_temperature;
  }
  auto peak = context.probe_peak(i);
  return peak ? *peak : std::numeric_limits<double>::infinity();
}

CurrentOptimum scalar_search(const engine::SolveContext& context, double hi,
                             const CurrentOptimizerOptions& options,
                             linalg::ScalarMethod method) {
  CurrentOptimum res;
  linalg::MinimizeOptions mo;
  mo.method = method;
  mo.x_tol = options.current_tol;
  mo.max_evaluations = options.max_iterations;
  auto r = linalg::minimize_scalar(
      [&](double i) { return objective(context, i, res.objective_evaluations); }, 0.0,
      hi, mo);
  res.current = r.x;
  res.converged = r.converged;
  return res;
}

CurrentOptimum parallel_section(const engine::SolveContext& context, double hi,
                                const CurrentOptimizerOptions& options) {
  CurrentOptimum res;
  const std::size_t k = std::max<std::size_t>(2, options.section_probes);
  // Probes depend only on the bracket, never on the pool size, so the search
  // trajectory (and hence the result) is identical for any thread count.
  double a = 0.0, b = hi;
  std::vector<double> xs(k);
  while (b - a > options.current_tol &&
         res.objective_evaluations + k <= options.max_iterations) {
    for (std::size_t j = 0; j < k; ++j) {
      xs[j] = a + (b - a) * double(j + 1) / double(k + 1);
    }
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
  res.converged = (b - a) <= options.current_tol;
  return res;
}

CurrentOptimum gradient_descent(const engine::SolveContext& context, double hi,
                                const CurrentOptimizerOptions& options) {
  const tec::ElectroThermalSystem& system = context.system();
  CurrentOptimum res;
  double i = 0.0;
  double f = objective(context, i, res.objective_evaluations);
  double step = options.initial_step;

  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    auto eval = ResponseEvaluator::at(system, i);
    if (!eval) break;  // should not happen inside [0, hi]
    // Subgradient of max_k θ_k at the hottest tile.
    linalg::Vector th = eval->theta();
    linalg::Vector tile = system.model().tile_temperatures(th);
    const std::size_t k_star = linalg::argmax(tile);
    linalg::Vector dth = eval->theta_derivative();
    const std::size_t cols = system.model().tile_cols();
    const double grad = dth[system.model().silicon_node({k_star / cols, k_star % cols})];
    if (std::abs(grad) * std::max(1.0, step) < 1e-9) {
      res.converged = true;
      break;
    }
    // Backtracking line search along -grad, projected onto [0, hi].
    bool moved = false;
    double trial_step = step;
    while (trial_step > 1e-7) {
      double i_new = std::clamp(i - trial_step * grad, 0.0, hi);
      if (i_new != i) {
        const double f_new = objective(context, i_new, res.objective_evaluations);
        if (f_new < f) {
          i = i_new;
          f = f_new;
          step = trial_step * 1.5;  // allow re-growth
          moved = true;
          break;
        }
      }
      trial_step *= options.backtrack_ratio;
    }
    if (!moved) {
      res.converged = true;
      break;
    }
    if (it + 1 == options.max_iterations) res.converged = false;
  }
  res.current = i;
  return res;
}

}  // namespace

CurrentOptimum optimize_current(const engine::SolveContext& context,
                                const CurrentOptimizerOptions& options) {
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

  res.lambda_m = context.runaway_limit(options.runaway);
  // Search interval: up to just below λ_m; without a finite λ_m fall back to
  // a generous multiple of the single-device optimal pumping current.
  const double hi = res.lambda_m
                        ? options.runaway_fraction * *res.lambda_m
                        : 4.0 * system.device().max_pumping_current(
                                    system.model().ambient() + 60.0);

  CurrentOptimum inner;
  switch (options.method) {
    case CurrentMethod::kGoldenSection:
      inner = scalar_search(context, hi, options, linalg::ScalarMethod::kGoldenSection);
      break;
    case CurrentMethod::kBrent:
      inner = scalar_search(context, hi, options, linalg::ScalarMethod::kBrent);
      break;
    case CurrentMethod::kGradientDescent:
      inner = gradient_descent(context, hi, options);
      break;
    case CurrentMethod::kParallelSection:
      inner = parallel_section(context, hi, options);
      break;
  }

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
  TFC_LOG_DEBUG("current_optimum", {"method", method_name(options.method)},
                {"current_a", res.current},
                {"peak_c", thermal::to_celsius(res.peak_tile_temperature)},
                {"evaluations", res.objective_evaluations}, {"converged", res.converged});
  if (!res.converged) {
    TFC_LOG_WARN("current_opt_no_convergence", {"method", method_name(options.method)},
                 {"evaluations", res.objective_evaluations},
                 {"max_iterations", options.max_iterations});
  }
  return res;
}

CurrentOptimum optimize_current(const tec::ElectroThermalSystem& system,
                                const CurrentOptimizerOptions& options) {
  const engine::SolveContext context(system);
  return optimize_current(context, options);
}

}  // namespace tfc::core
