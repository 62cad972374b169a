/// \file lanczos.h
/// \brief Sparse shift-invert Lanczos for the smallest positive generalized
/// eigenvalue of the pencil (G, D) with G SPD and D diagonal (indefinite).
///
/// The thermal-runaway limit λ_m = min{λ > 0 : G − λD singular} (Theorem 1)
/// is a generalized eigenvalue of the pencil (G, D). The dense bisection
/// probes positive definiteness of the full matrix at O(n³) per probe; this
/// solver instead factors K = G − σD **once** per shift σ (through the same
/// SparseCholeskySymbolic analyze/refactorize split every current probe
/// already shares) and runs a Lanczos iteration on the shift-inverted
/// operator
///
///     C_σ = K⁻¹·D,   G·v = λ·D·v  ⇔  C_σ·v = ν·v  with  ν = 1/(λ − σ),
///
/// which is self-adjoint in the K-inner product ⟨x, y⟩_K = xᵀK y (K is SPD
/// for every σ strictly inside the pencil's positive-definiteness interval).
/// The largest positive Ritz value ν_max of the tridiagonal recovers
/// λ_m = σ + 1/ν_max. The iteration stops once the top Ritz pair's residual
/// |β_{j+1}·s_j| drops to 1e-12·ν_max — typically within twenty steps.
/// Because D is supported on the TEC plate rows only, rank(C_σ) ≤ nnz(D),
/// so the Krylov space exhausts after at most that many steps anyway — a
/// handful of triangular solves replaces every dense O(n³) probe.
///
/// The iteration keeps the Lanczos basis fully K-reorthogonalized, computes
/// each K-image K·w with one SpMV (never by recurrence), runs its
/// n-dimensional inner loops allocation-free once the caller-owned
/// workspace is warm, and certifies the returned pair explicitly: the
/// residual ‖G·v − λ·D·v‖₂ ≤ rel_tol·‖G·v‖₂ with ‖v‖₂ = 1 proves an
/// eigenpair, and one refactorization of G − (1 − 1e-8)·λ·D proves no
/// smaller positive eigenvalue exists. Failing either throws a typed
/// LanczosNonConvergedError (mirroring the CG backend's
/// CgNonConvergedError) instead of ever returning an uncertified
/// eigenvalue. A shift that lands outside the PD interval (K not positive
/// definite) re-shifts to σ = 0 when allowed, else throws LanczosShiftError.
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
  /// Shift σ. The default 0 factors G itself — always valid for an SPD G —
  /// and still converges in ≤ rank(D)+1 iterations. A σ closer to λ_m
  /// sharpens the spectral separation further.
  double shift = 0.0;
  /// Residual certificate: ‖G·v − λ·D·v‖₂ ≤ rel_tol·‖G·v‖₂ (with ‖v‖₂ = 1).
  double rel_tol = 1e-9;
  /// Iteration cap (also capped at the dimension — the exact breakdown
  /// bound of a fully reorthogonalized Lanczos).
  std::size_t max_iterations = 512;
  /// When K = G − σD is not positive definite, retry once at σ = 0 instead
  /// of throwing LanczosShiftError (metric linalg.lanczos.reshifts).
  bool allow_reshift = true;
  /// Fill-reducing ordering for the convenience overload that runs its own
  /// symbolic analysis.
  FillOrdering ordering = FillOrdering::kRcm;
};

struct ShiftInvertLanczosResult {
  /// Smallest positive generalized eigenvalue λ of (G, D).
  double eigenvalue = 0.0;
  /// Certified eigenvector, ‖v‖₂ = 1.
  Vector eigenvector;
  /// Lanczos steps taken (linalg.lanczos_iters histogram).
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
  SparseMatrix pencil;                ///< K = G − σD, then the minimality probe
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
  /// shares it for every σ). Returns nullopt when the pencil has no positive
  /// eigenvalue (d has no positive direction — no finite runaway limit).
  /// Throws LanczosShiftError on a bad shift (see allow_reshift) and
  /// LanczosNonConvergedError when the residual certificate cannot be met.
  static std::optional<ShiftInvertLanczosResult> smallest_positive(
      const SparseMatrix& g, const Vector& d, const SparseCholeskySymbolic& symbolic,
      ShiftInvertLanczosWorkspace& ws, const ShiftInvertLanczosOptions& opts = {});

  /// Convenience overload: runs its own symbolic analysis and workspace.
  static std::optional<ShiftInvertLanczosResult> smallest_positive(
      const SparseMatrix& g, const Vector& d,
      const ShiftInvertLanczosOptions& opts = {});
};

}  // namespace tfc::linalg
