/// \file transient.h
/// \brief Transient RC simulation of the package (extension beyond the
/// paper's steady-state scope).
///
/// The paper's compact model deliberately omits thermal capacitance
/// ("we are focusing on the steady state behavior"). This solver adds the
/// capacitances back and integrates C·dθ/dt + G·θ = p with backward Euler,
/// enabling studies of TEC turn-on transients and time-varying power maps.
///
/// The factorization of (G + C/dt) is split SolveContext-style: one
/// SparseCholeskySymbolic analysis of the pattern, reused by every numeric
/// refactorization. Because C/dt only touches stored diagonal entries
/// (SparseMatrix::add_scaled_diagonal), the analyzed pattern is exactly G's —
/// which is also the pattern of every TEC pencil G − i·D. Sibling solvers
/// for other supply-current levels of one deployment therefore share one
/// analysis through symbolic() and run only the numeric factorization.
#pragma once

#include <memory>

#include "linalg/sparse_cholesky.h"
#include "linalg/sparse_matrix.h"
#include "linalg/vector.h"

namespace tfc::thermal {

/// Backward-Euler integrator over a fixed-topology network.
class TransientSolver {
 public:
  /// \p g assembled conductance matrix (or TEC pencil G − i·D); \p capacitance
  /// per-node C [J/K] (entries must be > 0); \p dt time step [s]. Pass a
  /// sibling solver's symbolic() as \p symbolic to skip the pattern analysis
  /// (the pencil keeps one pattern for every current level); the analyzed
  /// pattern must match \p g exactly.
  TransientSolver(const linalg::SparseMatrix& g, const linalg::Vector& capacitance,
                  double dt,
                  std::shared_ptr<const linalg::SparseCholeskySymbolic> symbolic = nullptr);

  double dt() const { return dt_; }

  /// The shared symbolic analysis of the (G + C/dt) pattern — hand it to
  /// sibling solvers (other TEC current levels of one deployment) so the
  /// fill-reducing ordering and elimination tree are computed once.
  const std::shared_ptr<const linalg::SparseCholeskySymbolic>& symbolic() const {
    return symbolic_;
  }

  /// One step: returns θ(t+dt) given θ(t) and the (constant-over-step)
  /// right-hand side p + g_amb·θ_amb.
  linalg::Vector step(const linalg::Vector& theta, const linalg::Vector& rhs) const;

  /// In-place step into caller-owned storage — zero allocations once \p out
  /// has adopted the system dimension. \p out must not alias \p theta or
  /// \p rhs. Identical arithmetic to step(). Uses internal scratch, so
  /// concurrent step_into calls on one solver must be externally serialized
  /// (step() remains safe to call concurrently).
  void step_into(const linalg::Vector& theta, const linalg::Vector& rhs,
                 linalg::Vector& out) const;

 private:
  double dt_;
  linalg::Vector c_over_dt_;
  std::shared_ptr<const linalg::SparseCholeskySymbolic> symbolic_;
  linalg::SparseCholeskyFactor factor_;
  // step_into scratch (see the thread-safety note on step_into).
  mutable linalg::Vector step_b_;
  mutable linalg::Vector solve_scratch_;
};

}  // namespace tfc::thermal
