/// \file nonlinear.h
/// \brief Temperature-dependent silicon conductivity (extension beyond the
/// paper's constant-k model).
///
/// Silicon's thermal conductivity falls with temperature,
/// k(T) ≈ k_ref · (T / T_ref)^−4/3, which makes hot spots hotter than the
/// constant-k model predicts. This solver runs a Picard (fixed-point)
/// iteration: solve the linear model, update the die conductivity at the
/// layer level from the mean silicon temperature, rebuild, repeat until the
/// temperature field stops moving. The layer-level update (rather than
/// per-node) keeps the network assembly unchanged and captures the
/// first-order effect; the residual per-node variation is quantified by the
/// fine-grid validation machinery.
#pragma once

#include "linalg/vector.h"
#include "thermal/package_model.h"
#include "thermal/steady_state.h"

namespace tfc::thermal {

struct NonlinearOptions {
  /// Temperature at which the spec's die conductivities are specified [K].
  double reference_temperature = to_kelvin(27.0);
  /// k(T) = k_ref (T/T_ref)^exponent; −4/3 for silicon near room temperature.
  double exponent = -4.0 / 3.0;
  std::size_t max_iterations = 40;
  /// Convergence: max |Δθ| between successive iterates [K].
  double tol = 1e-4;
};

struct NonlinearResult {
  /// Node temperatures of the converged model [K].
  linalg::Vector theta;
  /// Tile temperatures [K].
  linalg::Vector tile_temperatures;
  std::size_t iterations = 0;
  bool converged = false;
  /// Final effective conductivity of the first die layer [W/mK].
  double silicon_conductivity = 0.0;
};

/// Solve the package steady state with temperature-dependent die
/// conductivity. \p spec describes the package (each die layer's material
/// conductivity is its k_ref); \p tile_powers is the worst-case map.
NonlinearResult solve_steady_state_nonlinear(const StackSpec& spec,
                                             const linalg::Vector& tile_powers,
                                             const NonlinearOptions& nonlinear = {});

}  // namespace tfc::thermal
