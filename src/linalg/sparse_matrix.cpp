#include "linalg/sparse_matrix.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tfc::linalg {

void TripletList::add(std::size_t r, std::size_t c, double value) {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("TripletList::add: index out of range");
  entries_.push_back({r, c, value});
}

void TripletList::add_symmetric(std::size_t r, std::size_t c, double value) {
  add(r, c, value);
  if (r != c) add(c, r, value);
}

namespace {

/// Sort one bucketed row by column and sum duplicates in sorted order,
/// dropping exact zeros.
void sort_and_merge_row(std::vector<std::pair<std::size_t, double>>& row) {
  std::sort(row.begin(), row.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::size_t out = 0;
  for (std::size_t i = 0; i < row.size();) {
    std::size_t j = i;
    double acc = 0.0;
    while (j < row.size() && row[j].first == row[i].first) acc += row[j++].second;
    if (acc != 0.0) row[out++] = {row[i].first, acc};
    i = j;
  }
  row.resize(out);
}

}  // namespace

SparseMatrix SparseMatrix::from_triplets(const TripletList& t) {
  SparseMatrix m;
  m.rows_ = t.rows();
  m.cols_ = t.cols();

  // Count entries per row, then bucket, then merge duplicates per row.
  std::vector<std::vector<std::pair<std::size_t, double>>> rows(m.rows_);
  for (const auto& e : t.entries()) rows[e.row].emplace_back(e.col, e.value);

  m.row_ptr_.assign(m.rows_ + 1, 0);
  for (std::size_t r = 0; r < m.rows_; ++r) {
    sort_and_merge_row(rows[r]);
    m.row_ptr_[r + 1] = m.row_ptr_[r] + rows[r].size();
  }
  m.col_idx_.reserve(m.row_ptr_.back());
  m.values_.reserve(m.row_ptr_.back());
  for (const auto& row : rows) {
    for (const auto& [c, v] : row) {
      m.col_idx_.push_back(c);
      m.values_.push_back(v);
    }
  }
  return m;
}

SparseMatrix SparseMatrix::from_dense(const DenseMatrix& a, double drop_tol) {
  TripletList t(a.rows(), a.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      if (std::abs(a(r, c)) > drop_tol) t.add(r, c, a(r, c));
    }
  }
  return from_triplets(t);
}

SparseMatrix SparseMatrix::identity(std::size_t n) {
  TripletList t(n, n);
  for (std::size_t i = 0; i < n; ++i) t.add(i, i, 1.0);
  return from_triplets(t);
}

double SparseMatrix::at(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("SparseMatrix::at");
  const auto begin = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r]);
  const auto end = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r + 1]);
  const auto it = std::lower_bound(begin, end, c);
  if (it == end || *it != c) return 0.0;
  return values_[static_cast<std::size_t>(it - col_idx_.begin())];
}

Vector SparseMatrix::operator*(const Vector& x) const {
  Vector y(rows_);
  multiply_add(1.0, x, y);
  return y;
}

void SparseMatrix::multiply_add(double alpha, const Vector& x, Vector& y) const {
  if (x.size() != cols_ || y.size() != rows_) {
    throw std::invalid_argument("SparseMatrix::multiply_add: dimension mismatch");
  }
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      acc += values_[k] * x[col_idx_[k]];
    }
    y[r] += alpha * acc;
  }
}

Vector SparseMatrix::diag() const {
  if (!square()) throw std::invalid_argument("SparseMatrix::diag: not square");
  Vector d(rows_);
  for (std::size_t r = 0; r < rows_; ++r) d[r] = at(r, r);
  return d;
}

DenseMatrix SparseMatrix::to_dense() const {
  DenseMatrix a(rows_, cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      a(r, col_idx_[k]) = values_[k];
    }
  }
  return a;
}

SparseMatrix SparseMatrix::transposed() const {
  TripletList t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      t.add(col_idx_[k], r, values_[k]);
    }
  }
  return from_triplets(t);
}

SparseMatrix SparseMatrix::add_scaled(const SparseMatrix& b, double alpha) const {
  if (rows_ != b.rows_ || cols_ != b.cols_) {
    throw std::invalid_argument("SparseMatrix::add_scaled: shape mismatch");
  }
  TripletList t(rows_, cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      t.add(r, col_idx_[k], values_[k]);
    }
    for (std::size_t k = b.row_ptr_[r]; k < b.row_ptr_[r + 1]; ++k) {
      t.add(r, b.col_idx_[k], alpha * b.values_[k]);
    }
  }
  return from_triplets(t);
}

SparseMatrix SparseMatrix::add_scaled_diagonal(const Vector& d, double alpha) const {
  SparseMatrix out;
  out.assign_add_scaled_diagonal(*this, d, alpha);
  return out;
}

void SparseMatrix::assign_add_scaled_diagonal(const SparseMatrix& base, const Vector& d,
                                              double alpha) {
  if (!base.square() || d.size() != base.rows_) {
    throw std::invalid_argument("SparseMatrix::add_scaled_diagonal: shape mismatch");
  }
  rows_ = base.rows_;
  cols_ = base.cols_;
  row_ptr_ = base.row_ptr_;
  col_idx_ = base.col_idx_;
  values_ = base.values_;
  for (std::size_t r = 0; r < rows_; ++r) {
    const double add = alpha * d[r];
    if (add == 0.0) continue;
    const auto begin = col_idx_.begin() + std::ptrdiff_t(row_ptr_[r]);
    const auto end = col_idx_.begin() + std::ptrdiff_t(row_ptr_[r + 1]);
    const auto it = std::lower_bound(begin, end, r);
    if (it == end || *it != r) {
      // No stored diagonal to update: give up on pattern preservation.
      TripletList t(rows_, cols_);
      for (std::size_t k = 0; k < rows_; ++k) {
        if (d[k] != 0.0) t.add(k, k, alpha * d[k]);
      }
      *this = base.add_scaled(SparseMatrix::from_triplets(t), 1.0);
      return;
    }
    values_[std::size_t(it - col_idx_.begin())] += add;
  }
}

bool SparseMatrix::is_symmetric(double tol) const {
  if (!square()) return false;
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      if (std::abs(values_[k] - at(col_idx_[k], r)) > tol) return false;
    }
  }
  return true;
}

}  // namespace tfc::linalg
