/// \file multi_scenario.h
/// \brief Design against a set of power scenarios (extension).
///
/// The paper reduces the workload suite to a single worst-case map before
/// optimizing. That is conservative but can over-provision: the per-unit
/// maxima of different benchmarks never co-occur. This module runs the
/// GreedyDeploy loop against the scenario *set*: the over-limit tile set is
/// the union over scenarios, and the shared supply current minimizes the
/// worst peak over all scenarios (still a maximum of convex functions of i,
/// hence convex). The resulting design is guaranteed for every scenario yet
/// can be smaller than the folded-worst-case design.
#pragma once

#include <memory>
#include <vector>

#include "core/greedy_deploy.h"

namespace tfc::core {

/// Result of the multi-scenario design.
struct MultiScenarioResult {
  bool success = false;
  TileMask deployment;
  double current = 0.0;  ///< shared I_opt [A]
  /// Worst peak over scenarios at I_opt [K].
  double peak_tile_temperature = 0.0;
  /// Peak per scenario at I_opt [K].
  std::vector<double> scenario_peaks;
  /// Worst peak over scenarios without TECs [K].
  double peak_without_tec = 0.0;
  std::optional<double> lambda_m;
  std::size_t iterations = 0;
};

/// GreedyDeploy over a scenario set on the package \p spec against the tile
/// limit \p theta_max [K]. \p scenarios is a non-empty list of tile power
/// maps (each row-major over the spec's virtual grid). As in greedy_deploy,
/// coverage is clipped to the spec's TEC-capable sites; deployment fails
/// when the remaining over-limit tiles sit outside them. Throws
/// std::invalid_argument on a null spec, no scenarios or a scenario of the
/// wrong size.
MultiScenarioResult greedy_deploy_multi(std::shared_ptr<const thermal::StackSpec> spec,
                                        const std::vector<linalg::Vector>& scenarios,
                                        const tec::TecDeviceParams& device,
                                        double theta_max);

}  // namespace tfc::core
