/// \file sparse_cholesky.h
/// \brief Sparse up-looking Cholesky factorization (L·Lᵀ) for SPD matrices,
/// split into a reusable symbolic analysis and a cheap numeric phase.
///
/// Direct solver of choice for the compact thermal system. The pencil
/// `G − i·D` keeps one sparsity pattern for every supply current `i`, so the
/// expensive part of the factorization — fill-reducing ordering, elimination
/// tree, per-row fill patterns — is computed **once** per deployment
/// (`SparseCholeskySymbolic::analyze`) and every candidate/current probe only
/// reruns the numeric sweep (`refactorize_into`). The numeric phase is
/// `const` and writes only caller-owned storage, so concurrent probes from
/// the tfc::par pool, each with its own factor, are safe. The one
/// fill-reducing ordering is the approximate minimum degree
/// (linalg/ordering.h). Like the dense variant, a failed numeric phase
/// doubles as a negative positive-definiteness probe (Theorem 1 binary
/// search).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "linalg/sparse_matrix.h"
#include "linalg/vector.h"

namespace tfc::linalg {

class SparseCholeskySymbolic;

/// Sparse Cholesky factor with an embedded symmetric pre-ordering.
class SparseCholeskyFactor {
 public:
  /// Empty factor, to be filled by SparseCholeskySymbolic::refactorize_into.
  /// Calling solve() on an empty factor throws (dimension 0 mismatch).
  SparseCholeskyFactor() = default;

  /// Attempt to factor SPD \p a (full symmetric storage). Returns nullopt if
  /// a non-positive pivot arises (matrix not positive definite). One-shot
  /// convenience: runs the symbolic analysis and the numeric phase back to
  /// back; for repeated factorizations of one pattern use
  /// SparseCholeskySymbolic.
  static std::optional<SparseCholeskyFactor> factor(const SparseMatrix& a);

  std::size_t dim() const { return n_; }

  /// Number of stored nonzeros of L (including the diagonal).
  std::size_t factor_nnz() const;

  /// Solve A x = b (solve_into on fresh storage).
  Vector solve(const Vector& b) const;

  /// Solve A x = b into caller-owned storage. \p x and \p scratch are
  /// resized to dim() — zero allocations once both have adopted it.
  /// \p x must not alias \p scratch; \p b may alias \p x. Opens a
  /// sparse_solve span.
  void solve_into(const Vector& b, Vector& x, Vector& scratch) const;

  /// Column j of A⁻¹.
  Vector inverse_column(std::size_t j) const;

  /// log(det A).
  double log_det() const;

 private:
  friend class SparseCholeskySymbolic;

  struct Entry {
    std::size_t row;
    double value;
  };

  std::size_t n_ = 0;
  std::vector<std::size_t> perm_;        // new = perm_[old]
  std::vector<std::size_t> inv_perm_;    // old = inv_perm_[new]
  std::vector<std::vector<Entry>> cols_; // strictly-lower entries per column
  std::vector<double> diag_;             // L(j, j)
};

/// The pattern-only half of the factorization: fill-reducing permutation,
/// elimination tree reach (per-row fill patterns of L), and a gather map
/// from the original CSR value array into the permuted lower triangle.
/// Immutable once built; `refactorize_into` is const and thread-safe, so one
/// analysis can serve concurrent numeric factorizations.
class SparseCholeskySymbolic {
 public:
  /// Analyze the pattern of square \p a (full symmetric storage) under the
  /// approximate minimum degree ordering. Values are ignored — only
  /// row_ptr/col_idx matter. Records nnz(L) and the fill ratio
  /// (cholesky.sparse.factor_nnz / fill_ratio), one sample per analysis.
  static SparseCholeskySymbolic analyze(const SparseMatrix& a);

  std::size_t dim() const { return n_; }

  /// Predicted nonzeros of L (including the diagonal).
  std::size_t factor_nnz() const { return n_ + lpat_idx_.size(); }

  /// True when \p a has exactly the analyzed pattern (same row_ptr and
  /// col_idx arrays) — the precondition of refactorize_into.
  bool pattern_matches(const SparseMatrix& a) const;

  /// Numeric factorization of \p a reusing the analysis, into a
  /// caller-owned factor whose storage it reuses — zero allocations once
  /// \p f has been warmed on this pattern. \p scratch is the dense row
  /// workspace (resized to dim()). Returns false on a non-positive pivot
  /// (matrix not positive definite), leaving \p f partially overwritten
  /// (invalid). Throws std::invalid_argument when \p a does not match the
  /// analyzed pattern. Opens a sparse_refactor span.
  bool refactorize_into(const SparseMatrix& a, SparseCholeskyFactor& f,
                        std::vector<double>& scratch) const;

 private:
  friend class SparseCholeskyFactor;

  SparseCholeskySymbolic() = default;

  /// The numeric sweep (no metrics, no validation) behind
  /// refactorize_into() and SparseCholeskyFactor::factor().
  bool numeric_into(const SparseMatrix& a, SparseCholeskyFactor& f,
                    std::vector<double>& x) const;

  std::size_t n_ = 0;
  std::vector<std::size_t> perm_;      // new = perm_[old]
  std::vector<std::size_t> inv_perm_;  // old = inv_perm_[new]

  // Analyzed pattern of the *original* matrix, kept for validation.
  std::vector<std::size_t> a_row_ptr_;
  std::vector<std::size_t> a_col_idx_;

  // Permuted lower triangle (diagonal included), rows sorted by column,
  // with a gather map into the original values array.
  std::vector<std::size_t> pa_ptr_;  // size n+1
  std::vector<std::size_t> pa_col_;
  std::vector<std::size_t> pa_src_;  // index into a.values()

  // Per-row fill pattern of L (strictly lower, ascending columns).
  std::vector<std::size_t> lpat_ptr_;  // size n+1
  std::vector<std::size_t> lpat_idx_;

  // Entries per column of L (strictly lower), for exact reservation.
  std::vector<std::size_t> lcol_count_;
};

/// Positive-definiteness probe via sparse Cholesky.
bool is_positive_definite(const SparseMatrix& a);

}  // namespace tfc::linalg
