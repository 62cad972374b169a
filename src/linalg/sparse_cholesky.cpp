#include "linalg/sparse_cholesky.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "linalg/ordering.h"
#include "obs/obs.h"

namespace tfc::linalg {

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

SparseCholeskySymbolic SparseCholeskySymbolic::analyze(const SparseMatrix& a) {
  if (!a.square()) throw std::invalid_argument("SparseCholeskySymbolic: matrix not square");
  TFC_SPAN("sparse_analyze");
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t n = a.rows();

  SparseCholeskySymbolic s;
  s.n_ = n;
  s.perm_ = approximate_minimum_degree(a);
  s.inv_perm_ = invert_permutation(s.perm_);
  s.a_row_ptr_ = a.row_ptr();
  s.a_col_idx_ = a.col_idx();

  // Permuted lower triangle (diagonal included) with a gather map into the
  // original values array: entry q of A at (r, c) lands in permuted row
  // perm[r] when perm[c] <= perm[r].
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  std::vector<std::size_t> count(n, 0);
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t pr = s.perm_[r];
    for (std::size_t q = rp[r]; q < rp[r + 1]; ++q) {
      if (s.perm_[ci[q]] <= pr) ++count[pr];
    }
  }
  s.pa_ptr_.assign(n + 1, 0);
  for (std::size_t k = 0; k < n; ++k) s.pa_ptr_[k + 1] = s.pa_ptr_[k] + count[k];
  std::vector<std::pair<std::size_t, std::size_t>> entries(s.pa_ptr_[n]);
  {
    std::vector<std::size_t> cursor(s.pa_ptr_.begin(), s.pa_ptr_.end() - 1);
    for (std::size_t r = 0; r < n; ++r) {
      const std::size_t pr = s.perm_[r];
      for (std::size_t q = rp[r]; q < rp[r + 1]; ++q) {
        const std::size_t pc = s.perm_[ci[q]];
        if (pc <= pr) entries[cursor[pr]++] = {pc, q};
      }
    }
  }
  s.pa_col_.resize(entries.size());
  s.pa_src_.resize(entries.size());
  for (std::size_t k = 0; k < n; ++k) {
    std::sort(entries.begin() + std::ptrdiff_t(s.pa_ptr_[k]),
              entries.begin() + std::ptrdiff_t(s.pa_ptr_[k + 1]));
    for (std::size_t q = s.pa_ptr_[k]; q < s.pa_ptr_[k + 1]; ++q) {
      s.pa_col_[q] = entries[q].first;
      s.pa_src_[q] = entries[q].second;
    }
  }

  // Elimination-tree parents, discovered incrementally (Liu's algorithm),
  // and the resulting per-row fill patterns of L.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> parent(n, kNone);
  std::vector<std::size_t> mark(n, kNone);  // mark[j] == k  ⇔ j visited for row k
  std::vector<std::size_t> pattern;
  s.lpat_ptr_.assign(1, 0);
  s.lcol_count_.assign(n, 0);
  for (std::size_t k = 0; k < n; ++k) {
    pattern.clear();
    mark[k] = k;
    for (std::size_t q = s.pa_ptr_[k]; q < s.pa_ptr_[k + 1]; ++q) {
      const std::size_t j = s.pa_col_[q];
      if (j == k) continue;
      // Walk up the elimination tree until we hit a visited node.
      std::size_t t = j;
      while (mark[t] != k) {
        mark[t] = k;
        pattern.push_back(t);
        if (parent[t] == kNone) {
          parent[t] = k;
          break;
        }
        t = parent[t];
      }
    }
    // The numeric up-looking step needs ascending column order.
    std::sort(pattern.begin(), pattern.end());
    for (std::size_t j : pattern) ++s.lcol_count_[j];
    s.lpat_idx_.insert(s.lpat_idx_.end(), pattern.begin(), pattern.end());
    s.lpat_ptr_.push_back(s.lpat_idx_.size());
  }

  const std::size_t nnz = s.factor_nnz();
  TFC_SPAN_ATTR("nnz_l", nnz);
  auto& metrics = obs::MetricsRegistry::global();
  metrics.histogram("cholesky.sparse.analyze_ms").record(ms_since(t0));
  metrics.histogram("cholesky.sparse.factor_nnz").record(double(nnz));
  // Fill-in relative to the lower triangle of A (diagonal included).
  const std::size_t a_lower = (a.values().size() + n) / 2;
  if (a_lower > 0) {
    metrics.histogram("cholesky.sparse.fill_ratio").record(double(nnz) / double(a_lower));
  }
  return s;
}

bool SparseCholeskySymbolic::pattern_matches(const SparseMatrix& a) const {
  return a.rows() == n_ && a.cols() == n_ && a.row_ptr() == a_row_ptr_ &&
         a.col_idx() == a_col_idx_;
}

std::optional<SparseCholeskyFactor> SparseCholeskySymbolic::numeric(
    const SparseMatrix& a) const {
  SparseCholeskyFactor f;
  std::vector<double> x;
  if (!numeric_into(a, f, x)) return std::nullopt;
  return f;
}

bool SparseCholeskySymbolic::numeric_into(const SparseMatrix& a, SparseCholeskyFactor& f,
                                          std::vector<double>& x) const {
  const auto& vals = a.values();

  if (f.n_ != n_ || f.perm_ != perm_) {
    f.n_ = n_;
    f.perm_ = perm_;
    f.inv_perm_ = inv_perm_;
    f.cols_.assign(n_, {});
  }
  for (std::size_t j = 0; j < n_; ++j) {
    f.cols_[j].clear();
    f.cols_[j].reserve(lcol_count_[j]);
  }
  f.diag_.assign(n_, 0.0);

  x.assign(n_, 0.0);  // dense row workspace
  for (std::size_t k = 0; k < n_; ++k) {
    // Scatter row k of the (permuted) matrix into the workspace.
    double d = 0.0;
    for (std::size_t q = pa_ptr_[k]; q < pa_ptr_[k + 1]; ++q) {
      const std::size_t j = pa_col_[q];
      if (j == k) {
        d = vals[pa_src_[q]];
      } else {
        x[j] = vals[pa_src_[q]];
      }
    }
    // Up-looking numeric step over the precomputed fill pattern.
    for (std::size_t idx = lpat_ptr_[k]; idx < lpat_ptr_[k + 1]; ++idx) {
      const std::size_t j = lpat_idx_[idx];
      const double lkj = x[j] / f.diag_[j];
      x[j] = 0.0;
      for (const SparseCholeskyFactor::Entry& e : f.cols_[j]) {
        // e.row < k always (only processed rows are stored).
        x[e.row] -= e.value * lkj;
      }
      d -= lkj * lkj;
      f.cols_[j].push_back({k, lkj});
    }
    if (!(d > 0.0) || !std::isfinite(d)) return false;
    f.diag_[k] = std::sqrt(d);
  }
  return true;
}

bool SparseCholeskySymbolic::refactorize_into(const SparseMatrix& a, SparseCholeskyFactor& f,
                                              std::vector<double>& scratch) const {
  if (!pattern_matches(a)) {
    throw std::invalid_argument("SparseCholeskySymbolic::refactorize_into: pattern mismatch");
  }
  TFC_SPAN("sparse_refactor");
  TFC_SPAN_ATTR("n", a.rows());
  const auto t0 = std::chrono::steady_clock::now();
  const bool ok = numeric_into(a, f, scratch);
  auto& metrics = obs::MetricsRegistry::global();
  metrics.counter("cholesky.sparse.refactors").increment();
  metrics.histogram("cholesky.sparse.refactor_ms").record(ms_since(t0));
  if (!ok) metrics.counter("cholesky.sparse.not_pd").increment();
  return ok;
}

std::optional<SparseCholeskyFactor> SparseCholeskySymbolic::refactorize(
    const SparseMatrix& a) const {
  if (!pattern_matches(a)) {
    throw std::invalid_argument("SparseCholeskySymbolic::refactorize: pattern mismatch");
  }
  TFC_SPAN("sparse_refactor");
  TFC_SPAN_ATTR("n", a.rows());
  const auto t0 = std::chrono::steady_clock::now();
  auto f = numeric(a);
  auto& metrics = obs::MetricsRegistry::global();
  metrics.counter("cholesky.sparse.refactors").increment();
  metrics.histogram("cholesky.sparse.refactor_ms").record(ms_since(t0));
  if (!f) metrics.counter("cholesky.sparse.not_pd").increment();
  return f;
}

std::optional<SparseCholeskyFactor> SparseCholeskyFactor::factor(const SparseMatrix& a) {
  TFC_SPAN("sparse_factor");
  TFC_SPAN_ATTR("n", a.rows());
  const auto t0 = std::chrono::steady_clock::now();
  const SparseCholeskySymbolic symbolic = SparseCholeskySymbolic::analyze(a);
  auto f = symbolic.numeric(a);

  auto& metrics = obs::MetricsRegistry::global();
  metrics.counter("cholesky.sparse.factors").increment();
  metrics.histogram("cholesky.sparse.factor_ms").record(ms_since(t0));
  if (!f) metrics.counter("cholesky.sparse.not_pd").increment();
  return f;
}

std::size_t SparseCholeskyFactor::factor_nnz() const {
  std::size_t nnz = n_;
  for (const auto& c : cols_) nnz += c.size();
  return nnz;
}

Vector SparseCholeskyFactor::solve(const Vector& b) const {
  if (b.size() != n_) throw std::invalid_argument("SparseCholeskyFactor::solve: dimension mismatch");
  // Permute RHS into factor ordering.
  Vector pb = permute(b, perm_);

  // Forward: L y = pb (columns scatter).
  for (std::size_t j = 0; j < n_; ++j) {
    pb[j] /= diag_[j];
    const double yj = pb[j];
    for (const Entry& e : cols_[j]) pb[e.row] -= e.value * yj;
  }
  // Backward: Lᵀ x = y (columns gather).
  for (std::size_t jj = n_; jj-- > 0;) {
    double s = pb[jj];
    for (const Entry& e : cols_[jj]) s -= e.value * pb[e.row];
    pb[jj] = s / diag_[jj];
  }
  // Un-permute.
  return permute(pb, inv_perm_);
}

void SparseCholeskyFactor::solve_into(const Vector& b, Vector& x, Vector& scratch) const {
  TFC_SPAN("sparse_solve");
  if (b.size() != n_) {
    throw std::invalid_argument("SparseCholeskyFactor::solve_into: dimension mismatch");
  }
  scratch.resize(n_);
  // Permute RHS into factor ordering (b may alias x, never scratch).
  for (std::size_t i = 0; i < n_; ++i) scratch[perm_[i]] = b[i];

  // Forward: L y = pb (columns scatter).
  for (std::size_t j = 0; j < n_; ++j) {
    scratch[j] /= diag_[j];
    const double yj = scratch[j];
    for (const Entry& e : cols_[j]) scratch[e.row] -= e.value * yj;
  }
  // Backward: Lᵀ x = y (columns gather).
  for (std::size_t jj = n_; jj-- > 0;) {
    double s = scratch[jj];
    for (const Entry& e : cols_[jj]) s -= e.value * scratch[e.row];
    scratch[jj] = s / diag_[jj];
  }
  // Un-permute.
  x.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) x[inv_perm_[i]] = scratch[i];
}

Vector SparseCholeskyFactor::inverse_column(std::size_t j) const {
  if (j >= n_) throw std::out_of_range("SparseCholeskyFactor::inverse_column");
  Vector e(n_);
  e[j] = 1.0;
  return solve(e);
}

double SparseCholeskyFactor::log_det() const {
  double acc = 0.0;
  for (double d : diag_) acc += std::log(d);
  return 2.0 * acc;
}

bool is_positive_definite(const SparseMatrix& a) {
  return SparseCholeskyFactor::factor(a).has_value();
}

}  // namespace tfc::linalg
