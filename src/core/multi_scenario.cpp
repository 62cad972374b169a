#include "core/multi_scenario.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "engine/solve_context.h"
#include "linalg/minimize.h"
#include "linalg/sparse_cholesky.h"
#include "par/parallel.h"

namespace tfc::core {

namespace {

/// Fixed deployment, multiple scenarios: evaluate per-scenario tile
/// temperatures at a current by factoring once (into the context's pooled
/// workspace) and solving per RHS. Rebuilt per greedy pass on a context that
/// persists across passes, so each pass is an incremental re-stamp.
class ScenarioEvaluator {
 public:
  ScenarioEvaluator(const engine::SolveContext& context,
                    const std::vector<linalg::Vector>& scenarios)
      : scenarios_(&scenarios), context_(&context) {
    const auto& model = context.system().model();
    const std::size_t cols = model.tile_cols();
    tile_nodes_.resize(model.tile_count());
    for (std::size_t t = 0; t < model.tile_count(); ++t) {
      tile_nodes_[t] = model.silicon_node({t / cols, t % cols});
    }
    ambient_rhs_ = linalg::Vector(model.node_count());
    const double ambient = model.ambient();
    for (std::size_t k = 0; k < model.node_count(); ++k) {
      const double g = model.network().ambient_conductance(k);
      if (g > 0.0) ambient_rhs_[k] = g * ambient;
    }
  }

  /// Per-scenario tile temperature vectors at current i; nullopt past λ_m.
  std::optional<std::vector<linalg::Vector>> tile_temps(double i) const {
    if (i < 0.0) return std::nullopt;
    const auto& system = context_->system();
    engine::SolveContext::WorkspaceLease ws(*context_);
    if (!system.factorize_into(i, *ws)) return std::nullopt;
    const linalg::SparseCholeskyFactor& factor = ws->factor;

    const double joule = 0.5 * system.device().resistance * i * i;
    // One factorization, independent per-scenario solves: result slot s is
    // always scenario s, so the output is identical for any pool size.
    return par::parallel_map(scenarios_->size(), [&](std::size_t s) {
      const auto& powers = (*scenarios_)[s];
      linalg::Vector rhs = ambient_rhs_;
      for (std::size_t t = 0; t < tile_nodes_.size(); ++t) {
        rhs[tile_nodes_[t]] += powers[t];
      }
      for (std::size_t hot : system.model().hot_nodes()) rhs[hot] += joule;
      for (std::size_t cold : system.model().cold_nodes()) rhs[cold] += joule;
      return system.model().tile_temperatures(factor.solve(rhs));
    });
  }

  /// Worst peak over scenarios at current i; +inf past λ_m.
  double worst_peak(double i) const {
    auto temps = tile_temps(i);
    if (!temps) return std::numeric_limits<double>::infinity();
    double peak = 0.0;
    for (const auto& t : *temps) peak = std::max(peak, linalg::max_entry(t));
    return peak;
  }

 private:
  const std::vector<linalg::Vector>* scenarios_;
  const engine::SolveContext* context_;
  std::vector<std::size_t> tile_nodes_;
  linalg::Vector ambient_rhs_;
};

TileMask union_over_limit(const std::vector<linalg::Vector>& tile_temps,
                          std::size_t rows, std::size_t cols, double theta_max) {
  TileMask mask(rows, cols);
  for (const auto& temps : tile_temps) {
    for (std::size_t t = 0; t < rows * cols; ++t) {
      if (temps[t] > theta_max) mask.set(t / cols, t % cols);
    }
  }
  return mask;
}

}  // namespace

MultiScenarioResult greedy_deploy_multi(const thermal::PackageGeometry& geometry,
                                        const std::vector<linalg::Vector>& scenarios,
                                        const tec::TecDeviceParams& device,
                                        const GreedyDeployOptions& options) {
  if (scenarios.empty()) {
    throw std::invalid_argument("greedy_deploy_multi: no scenarios");
  }
  for (const auto& s : scenarios) {
    if (s.size() != geometry.tile_count()) {
      throw std::invalid_argument("greedy_deploy_multi: scenario size mismatch");
    }
  }
  device.validate();

  MultiScenarioResult result;
  result.deployment = TileMask(geometry.tile_rows, geometry.tile_cols);

  // One context spans the whole loop: deployments only grow, so each pass
  // re-stamps incrementally. Scenario powers ride in the per-solve RHS, so
  // the context's installed power map (scenario 0) is never consulted.
  engine::SolveContext context(geometry, TileMask(), scenarios[0], device,
                               options.engine);

  // Passive worst case over all scenarios.
  ScenarioEvaluator passive(context, scenarios);
  auto temps0 = passive.tile_temps(0.0);
  if (!temps0) throw std::runtime_error("greedy_deploy_multi: passive solve failed");
  result.peak_without_tec = passive.worst_peak(0.0);
  result.peak_tile_temperature = result.peak_without_tec;

  TileMask over = union_over_limit(*temps0, geometry.tile_rows, geometry.tile_cols,
                                   options.theta_max);
  if (over.empty()) {
    result.success = true;
    result.scenario_peaks.reserve(scenarios.size());
    for (const auto& t : *temps0) result.scenario_peaks.push_back(linalg::max_entry(t));
    return result;
  }

  const linalg::MinimizeOptions search{kCurrentTol, kMaxEvaluations};
  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    result.deployment |= over;
    ++result.iterations;

    context.extend(result.deployment);
    ScenarioEvaluator eval(context, scenarios);
    result.lambda_m = context.runaway_limit();
    const double hi = result.lambda_m ? kRunawayFraction * *result.lambda_m : 40.0;

    // Golden-section on the worst-scenario peak (max of convex); the current
    // is the final bracket's midpoint.
    const linalg::ScalarMinimum r = linalg::minimize_scalar(
        [&](double i) { return eval.worst_peak(i); }, 0.0, hi, search);
    result.current = 0.5 * (r.lo + r.hi);

    auto temps = eval.tile_temps(result.current);
    if (!temps) throw std::runtime_error("greedy_deploy_multi: optimum not solvable");
    result.scenario_peaks.clear();
    for (const auto& t : *temps) result.scenario_peaks.push_back(linalg::max_entry(t));
    result.peak_tile_temperature =
        *std::max_element(result.scenario_peaks.begin(), result.scenario_peaks.end());

    over = union_over_limit(*temps, geometry.tile_rows, geometry.tile_cols,
                            options.theta_max);
    if (over.empty()) {
      result.success = true;
      return result;
    }
    if (over.subset_of(result.deployment)) {
      result.success = false;
      return result;
    }
  }
  result.success = false;
  return result;
}

}  // namespace tfc::core
