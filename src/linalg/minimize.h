/// \file minimize.h
/// \brief One-dimensional minimization of (quasi-)convex objectives on a
/// bounded interval by golden-section search — the scalar engine behind the
/// per-device/grouped current searches and the scenario-aware shared
/// current.
///
/// Objectives may return +∞ to mark infeasible points (e.g. past the
/// thermal-runaway limit); the search handles that by shrinking toward the
/// feasible side.
#pragma once

#include <cstddef>
#include <functional>

namespace tfc::linalg {

struct MinimizeOptions {
  /// Absolute tolerance on the argument.
  double x_tol = 1e-4;
  std::size_t max_evaluations = 200;
};

struct ScalarMinimum {
  /// Best evaluated point and its value.
  double x = 0.0;
  double value = 0.0;
  /// Final bracket [lo, hi] around the minimizer (never evaluated itself).
  double lo = 0.0;
  double hi = 0.0;
  std::size_t evaluations = 0;
  bool converged = false;
};

/// Minimize f over [lo, hi] by golden-section search: two interior probes,
/// then one evaluation per step until the bracket is within x_tol or the
/// evaluation budget is spent. Throws std::invalid_argument for an empty or
/// inverted interval. The reported minimum is the best *evaluated* point.
ScalarMinimum minimize_scalar(const std::function<double(double)>& f, double lo,
                              double hi, const MinimizeOptions& options = {});

}  // namespace tfc::linalg
