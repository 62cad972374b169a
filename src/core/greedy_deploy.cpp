#include "core/greedy_deploy.h"

#include <stdexcept>
#include <utility>

#include "engine/solve_context.h"
#include "obs/obs.h"

namespace tfc::core {

namespace {

/// Tiles whose temperature exceeds theta_max (the set T of Figure 5).
TileMask over_limit_tiles(const linalg::Vector& tile_temps, std::size_t rows,
                          std::size_t cols, double theta_max) {
  TileMask t(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (tile_temps[r * cols + c] > theta_max) t.set(r, c);
    }
  }
  return t;
}

/// The greedy loop on an assembled context. \p allowed is the set of sites
/// that may carry a device (the spec's TEC-capable interface sites) and
/// fixes the grid shape.
GreedyDeployResult greedy_deploy_impl(engine::SolveContext& context,
                                      const TileMask& allowed, double theta_max) {
  const std::size_t rows = allowed.rows();
  const std::size_t cols = allowed.cols();
  auto& metrics = obs::MetricsRegistry::global();
  GreedyDeployResult result;
  result.deployment = TileMask(rows, cols);

  // Line 3-4: solve G·θ = p (no TECs) and collect the over-limit set T.
  auto passive_op = context.solve(0.0);
  if (!passive_op) throw std::runtime_error("greedy_deploy: passive model not solvable");
  result.peak_without_tec = passive_op->peak_tile_temperature;
  result.peak_tile_temperature = passive_op->peak_tile_temperature;

  TileMask over = over_limit_tiles(passive_op->tile_temperatures, rows, cols, theta_max);
  if (over.empty()) {
    // Already within limits: the empty deployment is proper.
    result.success = true;
    return result;
  }
  // Coverage set: the over-limit tiles that can physically carry a device.
  TileMask cover = over;
  cover &= allowed;
  if (cover.empty()) {
    // Every over-limit tile sits outside the TEC-capable sites: nothing to
    // deploy, no proper deployment exists.
    result.success = false;
    TFC_LOG_INFO("greedy_done", {"success", false}, {"passes", 0},
                 {"reason", "over-limit tiles outside TEC-capable sites"});
    return result;
  }

  // Lines 6-15: the greedy loop.
  for (std::size_t it = 0; it < kMaxGreedyPasses; ++it) {
    TFC_SPAN("greedy_pass");
    const std::size_t before = result.deployment.count();
    result.deployment |= cover;  // Line 7: S_TEC ∪= T
    metrics.counter("greedy.passes").increment();
    metrics.counter("greedy.accepted_sites").increment(result.deployment.count() - before);

    context.set_deployment(result.deployment);
    // Line 8: find i_opt minimizing the peak tile temperature.
    CurrentOptimum opt = optimize_current(context);
    metrics.counter("greedy.candidate_evaluations").increment(opt.objective_evaluations);

    result.current = opt.current;
    result.peak_tile_temperature = opt.peak_tile_temperature;
    result.tec_input_power = opt.tec_input_power;
    result.lambda_m = opt.lambda_m;

    // Lines 9-10: re-solve and recollect T.
    over = over_limit_tiles(opt.operating_point.tile_temperatures, rows, cols, theta_max);
    cover = over;
    cover &= allowed;

    result.iterations.push_back({result.deployment.count(), over.count(), opt.current,
                                 opt.peak_tile_temperature});
    TFC_LOG_INFO("greedy_pass", {"pass", it + 1}, {"tecs", result.deployment.count()},
                 {"tiles_over_limit", over.count()}, {"current_a", opt.current},
                 {"peak_c", thermal::to_celsius(opt.peak_tile_temperature)});

    if (over.empty()) {  // Lines 11-12
      result.success = true;
      TFC_LOG_INFO("greedy_done", {"success", true}, {"passes", it + 1},
                   {"tecs", result.deployment.count()}, {"current_a", result.current});
      return result;
    }
    // Lines 13-14: no coverable tile left to add ⇒ no proper deployment
    // exists (over-limit tiles outside `allowed` can never be covered).
    if (cover.subset_of(result.deployment)) {
      result.success = false;
      TFC_LOG_INFO("greedy_done", {"success", false}, {"passes", it + 1},
                   {"tecs", result.deployment.count()},
                   {"reason", "over-limit tiles already covered"});
      return result;
    }
  }
  result.success = false;
  TFC_LOG_WARN("greedy_max_iterations", {"max_iterations", kMaxGreedyPasses},
               {"tecs", result.deployment.count()});
  return result;
}

}  // namespace

GreedyDeployResult greedy_deploy(std::shared_ptr<const thermal::StackSpec> spec,
                                 const linalg::Vector& tile_powers,
                                 const tec::TecDeviceParams& device, double theta_max) {
  if (spec == nullptr) throw std::invalid_argument("greedy_deploy: null spec");
  device.validate();
  TFC_SPAN("greedy_deploy");
  // One solve context spans the whole greedy loop; each pass re-stamps it
  // with the grown deployment.
  const TileMask allowed = spec->tec_allowed_tiles();
  engine::SolveContext context(std::move(spec), TileMask(), tile_powers, device);
  return greedy_deploy_impl(context, allowed, theta_max);
}

}  // namespace tfc::core
