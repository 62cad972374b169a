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
/// which is also the pattern of every TEC pencil G − i·D. Every
/// supply-current level of one deployment can therefore share one analysis
/// (sim::ScenarioEngine passes the system's own) and run only the numeric
/// factorization.
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
  /// per-node C [J/K] (entries must be > 0); \p dt time step [s]. Pass an
  /// analysis of \p g's pattern as \p symbolic (a sibling solver's
  /// symbolic(), or the system's cached one) to skip the pattern analysis;
  /// the analyzed pattern must match \p g exactly.
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
  /// right-hand side p + g_amb·θ_amb. Uses only its own scratch, so it is
  /// safe to call concurrently.
  linalg::Vector step(const linalg::Vector& theta, const linalg::Vector& rhs) const;

  /// In-place step into caller-owned storage — zero allocations once \p out
  /// has adopted the system dimension. \p out must not alias \p theta or
  /// \p rhs. Uses internal scratch, so concurrent step_into calls on one
  /// solver must be externally serialized.
  void step_into(const linalg::Vector& theta, const linalg::Vector& rhs,
                 linalg::Vector& out) const;

 private:
  /// The backward-Euler step behind step() and step_into():
  /// b = rhs + (C/dt)·θ, then out = (G + C/dt)⁻¹·b with \p scratch as the
  /// triangular-solve workspace.
  void advance(const linalg::Vector& theta, const linalg::Vector& rhs, linalg::Vector& b,
               linalg::Vector& out, linalg::Vector& scratch) const;

  double dt_;
  linalg::Vector c_over_dt_;
  std::shared_ptr<const linalg::SparseCholeskySymbolic> symbolic_;
  linalg::SparseCholeskyFactor factor_;
  // step_into scratch (see the thread-safety note on step_into).
  mutable linalg::Vector step_b_;
  mutable linalg::Vector solve_scratch_;
};

}  // namespace tfc::thermal
