#include "core/multi_scenario.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

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
      : scenarios_(&scenarios), context_(&context) {}

  /// Per-scenario tile temperature vectors at current i; nullopt past λ_m.
  std::optional<std::vector<linalg::Vector>> tile_temps(double i) const {
    if (i < 0.0) return std::nullopt;
    const auto& system = context_->system();
    engine::SolveContext::WorkspaceLease ws(*context_);
    if (!system.factorize_into(i, *ws)) return std::nullopt;
    const linalg::SparseCholeskyFactor& factor = ws->factor;

    // One factorization, independent per-scenario solves: result slot s is
    // always scenario s, so the output is identical for any pool size.
    return par::parallel_map(scenarios_->size(), [&](std::size_t s) {
      linalg::Vector rhs;
      system.rhs_into(i, (*scenarios_)[s], rhs);
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

MultiScenarioResult greedy_deploy_multi(std::shared_ptr<const thermal::StackSpec> spec,
                                        const std::vector<linalg::Vector>& scenarios,
                                        const tec::TecDeviceParams& device,
                                        const GreedyDeployOptions& options) {
  if (spec == nullptr) throw std::invalid_argument("greedy_deploy_multi: null spec");
  if (scenarios.empty()) {
    throw std::invalid_argument("greedy_deploy_multi: no scenarios");
  }
  for (const auto& s : scenarios) {
    if (s.size() != spec->tile_count()) {
      throw std::invalid_argument("greedy_deploy_multi: scenario size mismatch");
    }
  }
  device.validate();

  const TileMask allowed = spec->tec_allowed_tiles();
  const std::size_t rows = allowed.rows();
  const std::size_t cols = allowed.cols();
  MultiScenarioResult result;
  result.deployment = TileMask(rows, cols);

  // One context spans the whole loop: deployments only grow, so each pass
  // re-stamps incrementally. Scenario powers ride in the per-solve RHS, so
  // the context's installed power map (scenario 0) is never consulted.
  engine::SolveContext context(std::move(spec), TileMask(), scenarios[0], device,
                               options.engine);

  // Passive worst case over all scenarios.
  ScenarioEvaluator passive(context, scenarios);
  auto temps0 = passive.tile_temps(0.0);
  if (!temps0) throw std::runtime_error("greedy_deploy_multi: passive solve failed");
  result.peak_without_tec = passive.worst_peak(0.0);
  result.peak_tile_temperature = result.peak_without_tec;
  result.scenario_peaks.reserve(scenarios.size());
  for (const auto& t : *temps0) result.scenario_peaks.push_back(linalg::max_entry(t));

  TileMask over = union_over_limit(*temps0, rows, cols, options.theta_max);
  if (over.empty()) {
    result.success = true;
    return result;
  }
  // Only sites that can physically carry a device are candidates; with none
  // over the limit, no proper deployment exists.
  TileMask cover = over;
  cover &= allowed;
  if (cover.empty()) return result;

  const linalg::MinimizeOptions search{kCurrentTol, kMaxEvaluations};
  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    result.deployment |= cover;
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

    over = union_over_limit(*temps, rows, cols, options.theta_max);
    if (over.empty()) {
      result.success = true;
      return result;
    }
    cover = over;
    cover &= allowed;
    if (cover.subset_of(result.deployment)) {
      result.success = false;
      return result;
    }
  }
  result.success = false;
  return result;
}

}  // namespace tfc::core
