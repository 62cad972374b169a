/// \file sparse_matrix.h
/// \brief Compressed-sparse-row matrix and a triplet assembly buffer.
///
/// The compact thermal networks are sparse (each tile couples to at most six
/// neighbours plus ambient); CSR is the storage used by the iterative and
/// sparse-direct solvers.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/dense_matrix.h"
#include "linalg/vector.h"

namespace tfc::linalg {

/// Coordinate-format assembly buffer. Duplicate (row, col) entries are summed
/// on conversion, which matches conductance stamping where several devices
/// contribute to one node pair.
class TripletList {
 public:
  TripletList(std::size_t rows, std::size_t cols) : rows_(rows), cols_(cols) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return entries_.size(); }

  /// Accumulate value at (r, c). Throws std::out_of_range for bad indices.
  void add(std::size_t r, std::size_t c, double value);

  /// Accumulate a symmetric pair: (r,c) += v and (c,r) += v.
  void add_symmetric(std::size_t r, std::size_t c, double value);

  struct Entry {
    std::size_t row;
    std::size_t col;
    double value;
  };
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<Entry> entries_;
};

/// Immutable CSR sparse matrix.
class SparseMatrix {
 public:
  SparseMatrix() = default;

  /// Compress a triplet list (duplicates summed, exact zeros dropped).
  static SparseMatrix from_triplets(const TripletList& t);

  /// Convert from dense, dropping entries with |a_ij| <= drop_tol.
  static SparseMatrix from_dense(const DenseMatrix& a, double drop_tol = 0.0);

  /// n x n identity.
  static SparseMatrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool square() const { return rows_ == cols_; }
  std::size_t nnz() const { return values_.size(); }

  /// CSR arrays.
  const std::vector<std::size_t>& row_ptr() const { return row_ptr_; }
  const std::vector<std::size_t>& col_idx() const { return col_idx_; }
  const std::vector<double>& values() const { return values_; }

  /// Entry lookup (binary search within the row); 0 for absent entries.
  double at(std::size_t r, std::size_t c) const;

  /// y = A x.
  Vector operator*(const Vector& x) const;

  /// y += alpha * A * x.
  void multiply_add(double alpha, const Vector& x, Vector& y) const;

  /// Main diagonal (square only); absent entries give 0.
  Vector diag() const;

  DenseMatrix to_dense() const;

  SparseMatrix transposed() const;

  /// A + alpha * B, patterns merged. Shapes must match.
  SparseMatrix add_scaled(const SparseMatrix& b, double alpha) const;

  /// A + alpha·diag(d) for square A (assign_add_scaled_diagonal into a new
  /// matrix).
  SparseMatrix add_scaled_diagonal(const Vector& d, double alpha) const;

  /// Make *this equal base + alpha·diag(d), preserving base's sparsity
  /// pattern exactly (row_ptr/col_idx are copied verbatim; entries that
  /// cancel to zero stay stored) and reusing this matrix's storage — no
  /// allocation once *this has adopted base's pattern. This keeps the
  /// pattern of the pencil `G − i·D` identical for every i, which is what
  /// lets a single symbolic Cholesky analysis serve all currents. Requires a
  /// stored diagonal entry wherever alpha·d[k] != 0; falls back to the
  /// pattern-merging add_scaled otherwise. \p base must not be *this.
  void assign_add_scaled_diagonal(const SparseMatrix& base, const Vector& d, double alpha);

  /// Structural symmetry AND value symmetry within tolerance.
  bool is_symmetric(double tol = 0.0) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_;  // size rows+1
  std::vector<std::size_t> col_idx_;  // sorted within each row
  std::vector<double> values_;
};

}  // namespace tfc::linalg
