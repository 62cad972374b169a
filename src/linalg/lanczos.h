/// \file lanczos.h
/// \brief Sparse shift-invert Lanczos for the smallest positive generalized
/// eigenvalue of the pencil (G, D) with G SPD and D diagonal (indefinite).
///
/// The thermal-runaway limit λ_m = min{λ > 0 : G − λD singular} (Theorem 1)
/// is a generalized eigenvalue of the pencil (G, D). The dense bisection
/// probes positive definiteness of the full matrix at O(n³) per probe; this
/// solver instead factors K = G − σD through the same SparseCholeskySymbolic
/// analyze/refactorize split every current probe already shares and runs a
/// Lanczos iteration on the shift-inverted operator
///
///     C_σ = K⁻¹·D,   G·v = λ·D·v  ⇔  C_σ·v = ν·v  with  ν = 1/(λ − σ),
///
/// which is self-adjoint in the K-inner product ⟨x, y⟩_K = xᵀK y (K is SPD
/// for every σ strictly inside the pencil's positive-definiteness interval).
/// Because D is supported on the TEC plate rows only, rank(C_σ) ≤ nnz(D),
/// so the Krylov space exhausts after at most that many steps.
///
/// The solve runs in two phases:
///  1. *A coarse Ritz pair.* The run starts from K⁻¹·d⁺, the response to the
///     hot plates' Peltier coefficients (d⁺ is the positive part of D's
///     diagonal), and stops once the top Ritz pair's residual |β_{j+1}·s_j|
///     drops to 1e-5·ν_max. With σ = 0 the caller may hand in the factor of
///     G (the engine's pooled factor, which the first current probe reuses).
///  2. *One near-λ_m factorization that refines and certifies.* The Ritz
///     estimate λ̃ = σ + 1/ν_max bounds λ_m from above. One factorization of
///     G − σ_K·D at σ_K = (1 − 5e-9)·λ̃ drives at most four rounds of inverse
///     iteration from the Ritz vector (contraction (λ_m − σ_K)/(λ₂ − σ_K) per
///     round), and its success proves G − λD positive definite on [0, σ_K]:
///     no positive eigenvalue lies below σ_K ≥ (1 − 1e-8)·λ.
///
/// The returned pair is certified explicitly: the residual
/// ‖G·v − λ·D·v‖₂ ≤ rel_tol·‖G·v‖₂ with ‖v‖₂ = 1 proves an eigenpair, and a
/// successful factorization of G − σ·D with σ ≥ (1 − 1e-8)·λ proves no
/// smaller positive eigenvalue exists. When phase 2 cannot certify (the near
/// factorization fails because two top eigenvalues are too close for the
/// coarse estimate, or the residual misses rel_tol), the solver falls back —
/// counted in linalg.lanczos.near_shift_fallbacks — to the single-phase path:
/// it resumes the run to a 1e-12·ν_max Ritz residual, refines with K's
/// factor, and factors G − (1 − 1e-8)·λ·D. Failing that throws a typed
/// LanczosNonConvergedError (mirroring the CG cross-check's CgNonConvergedError)
/// instead of ever returning an uncertified eigenvalue. A shift that lands
/// outside the PD interval (K not positive definite) re-shifts to σ = 0 when
/// allowed, else throws LanczosShiftError.
///
/// The iteration keeps the Lanczos basis fully K-reorthogonalized, computes
/// each K-image K·w with one SpMV (never by recurrence) and runs its
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

/// Thrown when K = G − σD is not positive definite (σ outside the pencil's
/// PD interval — a bad shift) and re-shifting is disabled, or when G itself
/// is not positive definite (σ = 0 failed: precondition violation).
class LanczosShiftError : public std::runtime_error {
 public:
  explicit LanczosShiftError(double shift);

  double shift() const { return shift_; }

 private:
  double shift_;
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

struct ShiftInvertLanczosOptions {
  /// Shift σ. The default 0 runs phase 1 on G itself — always valid for an
  /// SPD G, and the one shift that can reuse a caller's factor of G — and
  /// still converges in ≤ rank(D)+1 iterations. A σ closer to λ_m sharpens
  /// the spectral separation further.
  double shift = 0.0;
  /// Residual certificate: ‖G·v − λ·D·v‖₂ ≤ rel_tol·‖G·v‖₂ (with ‖v‖₂ = 1).
  double rel_tol = 1e-9;
  /// Iteration cap (also capped at the dimension — the exact breakdown
  /// bound of a fully reorthogonalized Lanczos).
  std::size_t max_iterations = 512;
  /// When K = G − σD is not positive definite, retry once at σ = 0 instead
  /// of throwing LanczosShiftError (metric linalg.lanczos.reshifts).
  bool allow_reshift = true;
};

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
  /// Shift actually used (0 after a re-shift).
  double shift = 0.0;
};

/// Caller-owned scratch: the shifted pencil, its numeric factor, the
/// K-orthonormal Lanczos basis v_i alongside K·v_i, and the iteration
/// vectors. Every buffer is warmed on first use and reused afterwards —
/// the n-dimensional inner loops allocate nothing once warm.
struct ShiftInvertLanczosWorkspace {
  /// K = G − σD (σ ≠ 0), then G − σ_K·D of phase 2 (or the fallback's
  /// minimality probe).
  SparseMatrix pencil;
  /// K's factor when the caller supplies none, then the near-λ_m factor.
  SparseCholeskyFactor factor;
  std::vector<double> factor_scratch;
  std::vector<Vector> basis;          ///< v_1..v_j (K-orthonormal)
  std::vector<Vector> kbasis;         ///< K·v_1..K·v_j
  Vector w, kw, z, solve_scratch;
  std::vector<double> alpha, beta;    ///< tridiagonal T_j
};

class ShiftInvertLanczos {
 public:
  /// Smallest positive generalized eigenvalue of (G, diag(d)) for SPD \p g.
  /// \p symbolic must be the analysis of g's pattern (the pencil G − σD
  /// shares it for every σ). \p g_factor, when given, must be the factor of
  /// \p g itself; phase 1 then runs on it instead of factoring G (σ = 0
  /// only, including after a re-shift). Returns nullopt when the pencil has
  /// no positive eigenvalue (d has no positive direction — no finite
  /// runaway limit). Throws LanczosShiftError on a bad shift (see
  /// allow_reshift) and LanczosNonConvergedError when the residual or the
  /// minimality certificate cannot be met.
  static std::optional<ShiftInvertLanczosResult> smallest_positive(
      const SparseMatrix& g, const Vector& d, const SparseCholeskySymbolic& symbolic,
      ShiftInvertLanczosWorkspace& ws, const ShiftInvertLanczosOptions& opts = {},
      const SparseCholeskyFactor* g_factor = nullptr);

  /// Convenience overload: runs its own symbolic analysis and workspace.
  static std::optional<ShiftInvertLanczosResult> smallest_positive(
      const SparseMatrix& g, const Vector& d,
      const ShiftInvertLanczosOptions& opts = {});
};

}  // namespace tfc::linalg
