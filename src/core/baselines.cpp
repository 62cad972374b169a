#include "core/baselines.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "engine/solve_context.h"

namespace tfc::core {

namespace {

/// Optimize the current of the context's fixed deployment.
BaselineResult optimize_deployment(const engine::SolveContext& context) {
  BaselineResult res;
  res.deployment = context.deployment();
  res.optimum = optimize_current(context);
  res.min_peak_temperature = res.optimum.peak_tile_temperature;
  return res;
}

}  // namespace

BaselineResult full_cover(std::shared_ptr<const thermal::StackSpec> spec,
                          const linalg::Vector& tile_powers,
                          const tec::TecDeviceParams& device,
                          const engine::EngineOptions& engine_options) {
  if (spec == nullptr) throw std::invalid_argument("full_cover: null spec");
  const TileMask deployment = spec->tec_allowed_tiles();
  if (deployment.empty()) {
    throw std::invalid_argument("full_cover: spec has no TEC-capable sites");
  }
  const engine::SolveContext context(std::move(spec), deployment, tile_powers, device,
                                     engine_options);
  return optimize_deployment(context);
}

BaselineResult threshold_cover(const thermal::PackageGeometry& geometry,
                               const linalg::Vector& tile_powers,
                               const tec::TecDeviceParams& device, std::size_t k,
                               const engine::EngineOptions& engine_options) {
  if (k == 0 || k > geometry.tile_count()) {
    throw std::invalid_argument("threshold_cover: k must be in [1, tile_count]");
  }
  // Rank tiles by passive steady-state temperature.
  const engine::SolveContext passive(geometry, TileMask(), tile_powers, device,
                                     engine_options);
  auto op = passive.solve_probe(0.0);
  if (!op) throw std::runtime_error("threshold_cover: passive model not solvable");

  std::vector<std::size_t> order(geometry.tile_count());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return op->tile_temperatures[a] > op->tile_temperatures[b];
  });

  TileMask mask(geometry.tile_rows, geometry.tile_cols);
  for (std::size_t j = 0; j < k; ++j) {
    mask.set(order[j] / geometry.tile_cols, order[j] % geometry.tile_cols);
  }
  const engine::SolveContext context(geometry, mask, tile_powers, device, engine_options);
  return optimize_deployment(context);
}

}  // namespace tfc::core
