/// \file lanczos.h
/// \brief Sparse shift-invert Lanczos for the smallest positive generalized
/// eigenvalue of the pencil (G, D) with G SPD and D diagonal (indefinite).
///
/// The thermal-runaway limit λ_m = min{λ > 0 : G − λD singular} (Theorem 1)
/// is a generalized eigenvalue of the pencil (G, D). The dense bisection
/// probes positive definiteness of the full matrix at O(n³) per probe; this
/// solver instead runs a Lanczos iteration on the inverted operator
///
///     C = G⁻¹·D,   G·v = λ·D·v  ⇔  C·v = ν·v  with  ν = 1/λ,
///
/// which is self-adjoint in the G-inner product ⟨x, y⟩_G = xᵀG y, and factors
/// the near-λ_m pencil through the same SparseCholeskySymbolic
/// analyze/refactorize_into split every current probe already shares. Because D is
/// supported on the TEC plate rows only, rank(C) ≤ nnz(D), so the Krylov
/// space exhausts after at most that many steps.
///
/// The solve runs in two phases:
///  1. *A coarse Ritz pair.* Always on G's factor: the caller's (the
///     engine's pooled factor, which the first current probe reuses) or one
///     the solver computes itself. The run starts from G⁻¹·d⁺, the response
///     to the hot plates' Peltier coefficients (d⁺ is the positive part of
///     D's diagonal), and stops once the top Ritz pair's residual
///     |β_{j+1}·s_j| drops to 1e-5·ν_max.
///  2. *One near-λ_m factorization that refines and certifies.* The Ritz
///     estimate λ̃ = 1/ν_max bounds λ_m from above. One factorization of
///     G − σ_K·D at σ_K = (1 − 5e-9)·λ̃ drives at most four rounds of inverse
///     iteration from the Ritz vector (contraction (λ_m − σ_K)/(λ₂ − σ_K) per
///     round), and its success proves G − λD positive definite on [0, σ_K]:
///     no positive eigenvalue lies below σ_K ≥ (1 − 1e-8)·λ.
///
/// The returned pair is certified explicitly: the residual
/// ‖G·v − λ·D·v‖₂ ≤ kLanczosRelTol·‖G·v‖₂ with ‖v‖₂ = 1 proves an eigenpair,
/// and a successful factorization of G − σ·D with σ ≥ (1 − 1e-8)·λ proves no
/// smaller positive eigenvalue exists. When phase 2 cannot certify (the near
/// factorization fails because two top eigenvalues are too close for the
/// coarse estimate, or the residual misses the tolerance), the solver falls
/// back — counted in linalg.lanczos.near_shift_fallbacks — to the
/// single-phase path: it resumes the run to a 1e-12·ν_max Ritz residual,
/// refines with G's factor, and factors G − (1 − 1e-8)·λ·D. Failing that
/// throws a typed LanczosNonConvergedError (mirroring the CG cross-check's
/// CgNonConvergedError) instead of ever returning an uncertified eigenvalue.
/// A G that is not positive definite throws LanczosShiftError.
///
/// The iteration keeps the Lanczos basis fully G-reorthogonalized, computes
/// each G-image G·w with one SpMV (never by recurrence) and runs its
/// n-dimensional inner loops allocation-free once the caller-owned
/// workspace is warm.
#pragma once

#include <cstddef>
#include <optional>
#include <stdexcept>
#include <vector>

#include "linalg/sparse_cholesky.h"
#include "linalg/sparse_matrix.h"
#include "linalg/vector.h"

namespace tfc::linalg {

/// Thrown when G itself is not positive definite (its factorization at
/// σ = 0 failed: a precondition violation).
class LanczosShiftError : public std::runtime_error {
 public:
  LanczosShiftError();
};

/// Thrown when the iteration stops (Ritz convergence, Krylov exhaustion or
/// iteration cap) without meeting the residual certificate, or when the
/// certified eigenvalue is not the smallest positive one — never a
/// silently-inaccurate eigenvalue. Mirrors engine::CgNonConvergedError.
class LanczosNonConvergedError : public std::runtime_error {
 public:
  LanczosNonConvergedError(std::size_t iterations, double rel_residual);

  std::size_t iterations() const { return iterations_; }
  double rel_residual() const { return rel_residual_; }

 private:
  std::size_t iterations_;
  double rel_residual_;
};

/// Residual certificate: ‖G·v − λ·D·v‖₂ ≤ kLanczosRelTol·‖G·v‖₂ (‖v‖₂ = 1).
inline constexpr double kLanczosRelTol = 1e-9;

struct ShiftInvertLanczosResult {
  /// Smallest positive generalized eigenvalue λ of (G, D).
  double eigenvalue = 0.0;
  /// Certified eigenvector, ‖v‖₂ = 1.
  Vector eigenvector;
  /// Lanczos steps taken, a fallback's included (linalg.lanczos_iters
  /// histogram).
  std::size_t iterations = 0;
  /// Certified relative residual ‖G·v − λ·D·v‖₂ / ‖G·v‖₂.
  double rel_residual = 0.0;
};

/// Caller-owned scratch: the near-λ_m pencil, its numeric factor, the
/// G-orthonormal Lanczos basis v_i alongside G·v_i, and the iteration
/// vectors. Every buffer is warmed on first use and reused afterwards —
/// the n-dimensional inner loops allocate nothing once warm.
struct ShiftInvertLanczosWorkspace {
  /// G − σ_K·D of phase 2 (or the fallback's minimality probe).
  SparseMatrix pencil;
  /// G's factor when the caller supplies none, then the near-λ_m factor.
  SparseCholeskyFactor factor;
  std::vector<double> factor_scratch;
  std::vector<Vector> basis;          ///< v_1..v_j (G-orthonormal)
  std::vector<Vector> kbasis;         ///< G·v_1..G·v_j
  Vector w, kw, z, solve_scratch;
  std::vector<double> alpha, beta;    ///< tridiagonal T_j
};

class ShiftInvertLanczos {
 public:
  /// Smallest positive generalized eigenvalue of (G, diag(d)) for SPD \p g.
  /// \p symbolic must be the analysis of g's pattern (the pencil G − σD
  /// shares it for every σ). \p g_factor, when given, must be the factor of
  /// \p g itself; phase 1 then runs on it instead of factoring G. Returns
  /// nullopt when the pencil has no positive eigenvalue (d has no positive
  /// direction — no finite runaway limit). Throws LanczosShiftError when G
  /// is not positive definite and LanczosNonConvergedError when the residual
  /// or the minimality certificate cannot be met.
  static std::optional<ShiftInvertLanczosResult> smallest_positive(
      const SparseMatrix& g, const Vector& d, const SparseCholeskySymbolic& symbolic,
      ShiftInvertLanczosWorkspace& ws, const SparseCholeskyFactor* g_factor = nullptr);

  /// Convenience overload: runs its own symbolic analysis and workspace.
  static std::optional<ShiftInvertLanczosResult> smallest_positive(const SparseMatrix& g,
                                                                   const Vector& d);

 private:
  /// Reaches the solve below with a residual certificate other than
  /// kLanczosRelTol; tests use it to make the certificate unreachable.
  friend struct ShiftInvertLanczosTestPeer;

  static std::optional<ShiftInvertLanczosResult> smallest_positive(
      const SparseMatrix& g, const Vector& d, const SparseCholeskySymbolic& symbolic,
      ShiftInvertLanczosWorkspace& ws, const SparseCholeskyFactor* g_factor,
      double rel_tol);
};

}  // namespace tfc::linalg
