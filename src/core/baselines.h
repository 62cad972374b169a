/// \file baselines.h
/// \brief Deployment baselines the paper compares GreedyDeploy against.
///
/// "Full cover" (Section VI.A): a TEC on every tile, current set by the same
/// Problem-2 subroutine. The paper's SwingLoss column is the gap between the
/// full-cover optimum and the greedy optimum — excessive deployment heats the
/// package with its own supply power. "Threshold-k" is an additional ablation:
/// cover the k hottest tiles of the passive solution.
#pragma once

#include <memory>

#include "core/current_optimizer.h"
#include "tec/device.h"
#include "thermal/stack_spec.h"

namespace tfc::core {

/// Result of a fixed-deployment baseline.
struct BaselineResult {
  TileMask deployment;
  CurrentOptimum optimum;
  /// min over i of the peak tile temperature [K] (Table I's "minθpeak").
  double min_peak_temperature = 0.0;
};

/// TEC on every TEC-capable interface site of the package; current optimized
/// (Table I "Full Cover" — on the paper's package, every tile). Throws
/// std::invalid_argument on a null spec or one without TEC-capable sites.
BaselineResult full_cover(std::shared_ptr<const thermal::StackSpec> spec,
                          const linalg::Vector& tile_powers,
                          const tec::TecDeviceParams& device);

/// TEC on the k hottest TEC-capable sites of the passive steady state (ties
/// in row-major order); current optimized. Throws std::invalid_argument on a
/// null spec or k outside [1, number of TEC-capable sites].
BaselineResult threshold_cover(std::shared_ptr<const thermal::StackSpec> spec,
                               const linalg::Vector& tile_powers,
                               const tec::TecDeviceParams& device, std::size_t k);

}  // namespace tfc::core
