/// \file multipin.h
/// \brief Extension beyond the paper: per-device supply currents.
///
/// The paper restricts all devices to a single shared current because only
/// one extra package pin is available (Section III.B). With multiple pins
/// each device j gets its own current i_j; steady state becomes
/// (G − Σ_j i_j·D_j)·θ = p(i⃗) with per-device Joule terms. This module
/// optimizes i⃗ by cyclic coordinate descent, each coordinate solved by
/// golden-section search with a positive-definiteness guard — quantifying
/// how much the single-pin constraint costs (ablation A2 in DESIGN.md).
#pragma once

#include <vector>

#include "engine/solve_context.h"
#include "tec/electro_thermal.h"

namespace tfc::core {

struct MultiPinResult {
  /// Optimized per-device currents [A], ordered like model().tec_tiles().
  std::vector<double> currents;
  double peak_tile_temperature = 0.0;  ///< [K]
  double tec_input_power = 0.0;        ///< [W]
  std::size_t sweeps = 0;
  bool converged = false;
};

/// Solve (G − Σ_j i_j·D_j)·θ = p(i⃗). Returns nullopt when the matrix is not
/// positive definite (vector runaway). The per-device diagonal update
/// preserves G's pattern, so the context's shared symbolic analysis and
/// workspace pool serve every probe of the coordinate descent.
std::optional<tec::OperatingPoint> solve_multi_pin(
    const engine::SolveContext& context, const std::vector<double>& currents);

/// Convenience overload: wraps \p system in a single-use context per call.
std::optional<tec::OperatingPoint> solve_multi_pin(
    const tec::ElectroThermalSystem& system, const std::vector<double>& currents);

/// Coordinate-descent optimization of the per-device currents, starting from
/// the optimal shared current (so it can only improve on the single-pin
/// optimum). Each coordinate is a golden-section search over [0, 20] A to
/// 1e-3 A; the descent stops after a sweep that lowers the peak by less than
/// 1e-4 K, or after \p max_sweeps sweeps. Throws std::invalid_argument if
/// the system has no TECs.
MultiPinResult optimize_multi_pin(const tec::ElectroThermalSystem& system,
                                  double shared_start, std::size_t max_sweeps = 8);

/// Result of the grouped (k-pin) optimization.
struct GroupedPinResult {
  /// One optimized current per group [A].
  std::vector<double> group_currents;
  double peak_tile_temperature = 0.0;  ///< [K]
  double tec_input_power = 0.0;        ///< [W]
  std::size_t sweeps = 0;
  bool converged = false;
};

/// Intermediate design point between the paper's single pin and full
/// multi-pin: devices share currents within groups (one extra package pin
/// per group). \p groups assigns each device (ordered like
/// model().tec_tiles()) to a group id in [0, n_groups). Coordinate descent
/// over group currents, searched and stopped as in optimize_multi_pin.
/// Throws std::invalid_argument on a malformed assignment or a system
/// without TECs.
GroupedPinResult optimize_grouped_pins(const tec::ElectroThermalSystem& system,
                                       const std::vector<std::size_t>& groups,
                                       double shared_start, std::size_t max_sweeps = 8);

/// Convenience grouping: split devices into \p n_groups tiers by passive
/// tile temperature (hottest tier first). Returns the per-device group ids.
std::vector<std::size_t> hotness_groups(const tec::ElectroThermalSystem& system,
                                        std::size_t n_groups);

}  // namespace tfc::core
