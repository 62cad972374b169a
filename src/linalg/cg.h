/// \file cg.h
/// \brief Jacobi-preconditioned conjugate-gradient solver for SPD sparse
/// systems.
///
/// The compact thermal matrices are irreducible positive-definite Stieltjes
/// matrices (paper, Lemma 1) and strictly diagonally dominant once the
/// ambient legs are folded in, so CG with a Jacobi (diagonal) preconditioner
/// converges quickly. Used for the fine-grid reference solver where direct
/// factorization would be wasteful, and for the service's independent
/// cross-check of a direct solve.
#pragma once

#include <cstddef>

#include "linalg/sparse_matrix.h"
#include "linalg/vector.h"

namespace tfc::linalg {

/// Convergence: ‖b − A·x‖₂ ≤ kCgRelTol·‖b‖₂.
inline constexpr double kCgRelTol = 1e-12;

/// CG solve result.
struct CgResult {
  Vector x;
  std::size_t iterations = 0;
  double residual_norm = 0.0;
  bool converged = false;
};

/// Solve A x = b for SPD \p a from x = 0, preconditioned by diag(A)⁻¹, within
/// \p max_iterations. Throws std::invalid_argument on a dimension mismatch
/// or a diagonal entry that is not strictly positive (A is then not PD).
/// A breakdown p·Ap ≤ 0 (A not PD) returns converged = false with
/// iterations < max_iterations.
CgResult conjugate_gradient(const SparseMatrix& a, const Vector& b,
                            std::size_t max_iterations);

}  // namespace tfc::linalg
