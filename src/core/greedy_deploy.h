/// \file greedy_deploy.h
/// \brief Problem 1 — the GreedyDeploy algorithm of Figure 5.
///
/// Iteratively covers every tile whose steady-state temperature exceeds the
/// allowed maximum with a TEC device, re-optimizing the shared supply current
/// (Problem 2) after each extension. Succeeds when no tile is over the limit;
/// fails when every over-limit tile is already covered (adding devices can
/// only inject more heat).
#pragma once

#include <memory>
#include <vector>

#include "common/tile.h"
#include "core/current_optimizer.h"
#include "tec/device.h"
#include "thermal/package.h"
#include "thermal/stack_spec.h"

namespace tfc::core {

/// Safety cap on greedy passes (the loop also terminates by its own logic).
inline constexpr std::size_t kMaxGreedyPasses = 64;

/// One loop iteration, for reporting/analysis.
struct GreedyIteration {
  std::size_t tecs_deployed = 0;
  std::size_t tiles_over_limit = 0;
  double current = 0.0;
  double peak_tile_temperature = 0.0;  ///< [K] after current optimization
};

/// Outcome of GreedyDeploy.
struct GreedyDeployResult {
  /// True iff a deployment meeting θ_max was found (Figure 5 return value).
  bool success = false;
  /// Final TEC deployment (S_TEC).
  TileMask deployment;
  /// Optimal shared supply current for the final deployment [A].
  double current = 0.0;
  /// Peak tile temperature of the final configuration [K].
  double peak_tile_temperature = 0.0;
  /// Peak tile temperature without any TEC [K] (Table I's first column).
  double peak_without_tec = 0.0;
  /// TEC electrical input power at the final operating point [W].
  double tec_input_power = 0.0;
  /// Runaway limit of the final deployment [A].
  std::optional<double> lambda_m;
  std::vector<GreedyIteration> iterations;
};

/// Run Figure 5 on a package against the maximum allowable silicon tile
/// temperature \p theta_max [K]. \p tile_powers is the worst-case per-tile
/// power map [W], row-major over the spec's virtual tile grid (all die grids
/// stacked vertically). Each pass covers exactly the over-limit set T,
/// clipped to the spec's TEC-capable interface sites; deployment fails when
/// the remaining over-limit tiles sit outside them. Throws
/// std::invalid_argument on a null spec.
GreedyDeployResult greedy_deploy(std::shared_ptr<const thermal::StackSpec> spec,
                                 const linalg::Vector& tile_powers,
                                 const tec::TecDeviceParams& device, double theta_max);

}  // namespace tfc::core
