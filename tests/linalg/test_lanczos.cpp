/// Property tests of the sparse shift-invert Lanczos eigensolver against the
/// dense pencil-bisection oracle, over random Stieltjes matrices (the
/// paper's own validation family) and sizes; its typed errors (a G that is
/// not positive definite, an unreachable certificate); and the two-phase
/// structure: a caller's factor of G, the counted fallback when the top two
/// eigenvalues nearly coincide, and the no-positive-entry exit.
#include "linalg/lanczos.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "linalg/dense_matrix.h"
#include "linalg/eigen.h"
#include "linalg/random_stieltjes.h"
#include "linalg/sparse_matrix.h"
#include "obs/context.h"
#include "obs/metrics.h"

namespace tfc::linalg {

/// Reaches the solve with a residual certificate other than kLanczosRelTol.
struct ShiftInvertLanczosTestPeer {
  static std::optional<ShiftInvertLanczosResult> smallest_positive(const SparseMatrix& g,
                                                                   const Vector& d,
                                                                   double rel_tol) {
    const SparseCholeskySymbolic symbolic = SparseCholeskySymbolic::analyze(g);
    ShiftInvertLanczosWorkspace ws;
    return ShiftInvertLanczos::smallest_positive(g, d, symbolic, ws, nullptr, rel_tol);
  }
};

namespace {

/// TEC-like diagonal: +mag on `pos` rows, −mag on `neg` rows, 0 elsewhere —
/// exactly the ±α support pattern of the Peltier matrix D.
Vector tec_like_diagonal(std::size_t n, std::size_t pos, std::size_t neg,
                         std::mt19937_64& rng, double mag = 1.0) {
  Vector d(n);
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  std::shuffle(idx.begin(), idx.end(), rng);
  std::uniform_real_distribution<double> u(0.5 * mag, mag);
  std::size_t k = 0;
  for (std::size_t i = 0; i < pos && k < n; ++i, ++k) d[idx[k]] = u(rng);
  for (std::size_t i = 0; i < neg && k < n; ++i, ++k) d[idx[k]] = -u(rng);
  return d;
}

std::optional<double> dense_oracle(const DenseMatrix& g, const Vector& d) {
  PencilBisectionOptions opts;
  opts.rel_tol = 1e-12;
  return pencil_smallest_positive_eigenvalue(g, DenseMatrix::diagonal(d), opts);
}

std::size_t nnz_of(const Vector& d) {
  std::size_t nnz = 0;
  for (std::size_t i = 0; i < d.size(); ++i) nnz += d[i] != 0.0 ? 1 : 0;
  return nnz;
}

TEST(ShiftInvertLanczos, AgreesWithDenseOracleAcrossSizesAndSeeds) {
  for (std::size_t n : {4u, 8u, 20u, 40u, 80u}) {
    for (std::uint64_t seed : {1u, 7u, 42u}) {
      std::mt19937_64 rng(seed * 1000 + n);
      const DenseMatrix gd = random_pd_stieltjes(n, rng);
      const Vector d =
          tec_like_diagonal(n, std::max<std::size_t>(1, n / 4), n / 5, rng);
      const SparseMatrix g = SparseMatrix::from_dense(gd);

      const auto oracle = dense_oracle(gd, d);
      const auto sparse = ShiftInvertLanczos::smallest_positive(g, d);
      ASSERT_TRUE(oracle.has_value()) << "n=" << n << " seed=" << seed;
      ASSERT_TRUE(sparse.has_value()) << "n=" << n << " seed=" << seed;
      EXPECT_NEAR(sparse->eigenvalue, *oracle, 1e-8 * *oracle)
          << "n=" << n << " seed=" << seed;
      // Certified: the result carries its own residual proof.
      EXPECT_LE(sparse->rel_residual, 1e-9);
      // Krylov exhaustion bound: rank(K⁻¹D) ≤ nnz(d).
      EXPECT_LE(sparse->iterations, nnz_of(d) + 1);
    }
  }
}

TEST(ShiftInvertLanczos, GroundedLaplacianFamily) {
  // Weakly dominant Laplacians with few grounded rows — the exact structure
  // of the thermal G, the hardest PD family the repo generates.
  for (std::uint64_t seed : {3u, 11u}) {
    std::mt19937_64 rng(seed);
    const std::size_t n = 48;
    const DenseMatrix gd = random_grounded_laplacian(n, 4, rng);
    const Vector d = tec_like_diagonal(n, 5, 5, rng, 0.3);
    const auto oracle = dense_oracle(gd, d);
    const auto sparse =
        ShiftInvertLanczos::smallest_positive(SparseMatrix::from_dense(gd), d);
    ASSERT_TRUE(oracle.has_value());
    ASSERT_TRUE(sparse.has_value());
    EXPECT_NEAR(sparse->eigenvalue, *oracle, 1e-8 * *oracle);
  }
}

TEST(ShiftInvertLanczos, EigenpairSatisfiesPencilEquation) {
  std::mt19937_64 rng(5);
  const std::size_t n = 30;
  const DenseMatrix gd = random_pd_stieltjes(n, rng);
  const Vector d = tec_like_diagonal(n, 6, 4, rng);
  const SparseMatrix g = SparseMatrix::from_dense(gd);
  const auto res = ShiftInvertLanczos::smallest_positive(g, d);
  ASSERT_TRUE(res.has_value());
  // Recompute ‖G·v − λ·D·v‖ / ‖G·v‖ from scratch; must match the certificate.
  EXPECT_NEAR(norm2(res->eigenvector), 1.0, 1e-12);
  Vector gv = g * res->eigenvector;
  const double gvn = norm2(gv);
  for (std::size_t i = 0; i < n; ++i) {
    gv[i] -= res->eigenvalue * d[i] * res->eigenvector[i];
  }
  EXPECT_LE(norm2(gv) / gvn, 1e-9);
}

TEST(ShiftInvertLanczos, NonPdGThrowsLanczosShiftError) {
  // G − 2·λ_m·D is a symmetric pencil member that is not positive definite:
  // handed in as "G", the solve's own factorization of it fails.
  std::mt19937_64 rng(13);
  const std::size_t n = 24;
  const DenseMatrix gd = random_pd_stieltjes(n, rng);
  const Vector d = tec_like_diagonal(n, 5, 3, rng);
  const SparseMatrix g = SparseMatrix::from_dense(gd);
  const auto base = ShiftInvertLanczos::smallest_positive(g, d);
  ASSERT_TRUE(base.has_value());

  const SparseMatrix indefinite = g.add_scaled_diagonal(d, -2.0 * base->eigenvalue);
  EXPECT_THROW(ShiftInvertLanczos::smallest_positive(indefinite, d), LanczosShiftError);
}

TEST(ShiftInvertLanczos, ImpossibleToleranceThrowsTypedNonConvergence) {
  std::mt19937_64 rng(17);
  const std::size_t n = 20;
  const DenseMatrix gd = random_pd_stieltjes(n, rng);
  const Vector d = tec_like_diagonal(n, 4, 3, rng);
  const SparseMatrix g = SparseMatrix::from_dense(gd);

  try {
    // 1e-30 is below machine precision: the certificate cannot be met.
    ShiftInvertLanczosTestPeer::smallest_positive(g, d, 1e-30);
    FAIL() << "expected LanczosNonConvergedError";
  } catch (const LanczosNonConvergedError& e) {
    EXPECT_GT(e.iterations(), 0u);
    EXPECT_GT(e.rel_residual(), 0.0);
  }
}

TEST(ShiftInvertLanczos, NoPositiveDirectionGivesNoEigenvalue) {
  std::mt19937_64 rng(21);
  const std::size_t n = 16;
  const DenseMatrix gd = random_pd_stieltjes(n, rng);
  const SparseMatrix g = SparseMatrix::from_dense(gd);

  Vector zero(n);
  EXPECT_FALSE(ShiftInvertLanczos::smallest_positive(g, zero).has_value());

  const Vector neg = tec_like_diagonal(n, 0, 5, rng);  // only negative entries
  EXPECT_FALSE(dense_oracle(gd, neg).has_value());
  EXPECT_FALSE(ShiftInvertLanczos::smallest_positive(g, neg).has_value());
}

TEST(ShiftInvertLanczos, OneByOneSystem) {
  TripletList t(1, 1);
  t.add(0, 0, 2.0);
  const SparseMatrix g = SparseMatrix::from_triplets(t);
  Vector d(1);
  d[0] = 0.5;
  const auto res = ShiftInvertLanczos::smallest_positive(g, d);
  ASSERT_TRUE(res.has_value());
  EXPECT_NEAR(res->eigenvalue, 4.0, 1e-12);
  EXPECT_EQ(res->iterations, 1u);
}

TEST(ShiftInvertLanczos, WorkspaceReuseIsBitIdentical) {
  std::mt19937_64 rng(25);
  const std::size_t n = 40;
  const DenseMatrix gd = random_pd_stieltjes(n, rng);
  const Vector d = tec_like_diagonal(n, 8, 6, rng);
  const SparseMatrix g = SparseMatrix::from_dense(gd);
  const auto symbolic = SparseCholeskySymbolic::analyze(g);

  ShiftInvertLanczosWorkspace ws;
  const auto first = ShiftInvertLanczos::smallest_positive(g, d, symbolic, ws);
  const auto second = ShiftInvertLanczos::smallest_positive(g, d, symbolic, ws);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  // A warm workspace must not change the arithmetic.
  EXPECT_EQ(first->eigenvalue, second->eigenvalue);
  EXPECT_EQ(first->iterations, second->iterations);
  EXPECT_EQ(first->rel_residual, second->rel_residual);
  EXPECT_TRUE(first->eigenvector == second->eigenvector);

  // The two-phase path on a caller's factor of G (the engine's pooled
  // factor) computes the same bits as on its own, with no fallback.
  auto& fallbacks =
      obs::MetricsRegistry::global().counter("linalg.lanczos.near_shift_fallbacks");
  const std::uint64_t fallbacks0 = fallbacks.value();
  SparseCholeskyFactor g_factor;
  std::vector<double> factor_scratch;
  ASSERT_TRUE(symbolic.refactorize_into(g, g_factor, factor_scratch));
  for (int rep = 0; rep < 2; ++rep) {
    const auto given =
        ShiftInvertLanczos::smallest_positive(g, d, symbolic, ws, &g_factor);
    ASSERT_TRUE(given.has_value());
    EXPECT_EQ(first->eigenvalue, given->eigenvalue);
    EXPECT_EQ(first->iterations, given->iterations);
    EXPECT_EQ(first->rel_residual, given->rel_residual);
    EXPECT_TRUE(first->eigenvector == given->eigenvector);
  }
  EXPECT_EQ(fallbacks.value(), fallbacks0);
}

/// A pencil with λ₁ = 1 and λ₂ = 1 + 1e-6: the phase-1 Ritz value (stopped
/// at a 1e-5 residual) cannot resolve the pair.
std::pair<SparseMatrix, Vector> close_top_pair() {
  const std::size_t n = 40;
  TripletList t(n, n);
  Vector d(n);
  for (std::size_t i = 0; i < n; ++i) {
    t.add(i, i, i == 0 ? 1.0 : i == 1 ? 1.0 + 1e-6 : 1.5 + 0.3 * double(i));
    d[i] = i < 30 ? 1.0 : -0.5;
  }
  return {SparseMatrix::from_triplets(t), d};
}

TEST(ShiftInvertLanczos, CloseTopEigenvaluesFallBackToTheSinglePhaseSolve) {
  // The near-λ_m factorization cannot certify, so the solve resumes the run
  // to the tight stop, refines with G's factor and certifies minimality with
  // its own factorization.
  const auto [g, d] = close_top_pair();
  auto& fallbacks =
      obs::MetricsRegistry::global().counter("linalg.lanczos.near_shift_fallbacks");
  const std::uint64_t fallbacks0 = fallbacks.value();
  const auto res = ShiftInvertLanczos::smallest_positive(g, d);
  EXPECT_EQ(fallbacks.value(), fallbacks0 + 1);
  ASSERT_TRUE(res.has_value());
  EXPECT_LE(res->rel_residual, 1e-9);
  const auto oracle = dense_oracle(g.to_dense(), d);
  ASSERT_TRUE(oracle.has_value());
  EXPECT_NEAR(res->eigenvalue, *oracle, 1e-8 * *oracle);
  EXPECT_TRUE(
      SparseCholeskyFactor::factor(g.add_scaled_diagonal(d, -(1.0 - 1e-8) * res->eigenvalue))
          .has_value());
}

/// The attributes of the one shift_invert_lanczos span of \p trace.
std::map<std::string, obs::Field::Value> lanczos_span_attrs(const obs::RequestTrace& trace) {
  std::map<std::string, obs::Field::Value> attrs;
  for (const auto& span : trace.spans()) {
    if (std::string(span.name) != "shift_invert_lanczos") continue;
    for (const auto& field : span.attrs) attrs[field.key] = field.value;
  }
  return attrs;
}

TEST(ShiftInvertLanczos, SpanRecordsInverseStepsAndNearShift) {
  std::mt19937_64 rng(31);
  const std::size_t n = 40;
  const SparseMatrix g = SparseMatrix::from_dense(random_pd_stieltjes(n, rng));
  const Vector d = tec_like_diagonal(n, 8, 6, rng);
  obs::RequestTrace certified;
  {
    obs::ScopedRequestContext scope("lanczos-near-shift", &certified);
    ASSERT_TRUE(ShiftInvertLanczos::smallest_positive(g, d).has_value());
  }
  auto attrs = lanczos_span_attrs(certified);
  ASSERT_EQ(attrs.count("near_shift"), 1u);
  ASSERT_EQ(attrs.count("inverse_steps"), 1u);
  EXPECT_EQ(std::get<std::int64_t>(attrs["near_shift"]), 1);
  EXPECT_LE(std::get<std::int64_t>(attrs["inverse_steps"]), 4);

  const auto [close_g, close_d] = close_top_pair();
  obs::RequestTrace fallback;
  {
    obs::ScopedRequestContext scope("lanczos-fallback", &fallback);
    ASSERT_TRUE(ShiftInvertLanczos::smallest_positive(close_g, close_d).has_value());
  }
  attrs = lanczos_span_attrs(fallback);
  ASSERT_EQ(attrs.count("near_shift"), 1u);
  EXPECT_EQ(std::get<std::int64_t>(attrs["near_shift"]), 0);
}

TEST(ShiftInvertLanczos, NoPositiveEntryReturnsNulloptOnEveryPath) {
  // A D without a positive entry has no positive eigenvalue, whether or not
  // a factor of G is offered: the solve returns before any Lanczos step.
  std::mt19937_64 rng(29);
  const std::size_t n = 16;
  const DenseMatrix gd = random_pd_stieltjes(n, rng);
  const SparseMatrix g = SparseMatrix::from_dense(gd);
  const auto symbolic = SparseCholeskySymbolic::analyze(g);
  SparseCholeskyFactor g_factor;
  std::vector<double> factor_scratch;
  ASSERT_TRUE(symbolic.refactorize_into(g, g_factor, factor_scratch));
  const Vector neg = tec_like_diagonal(n, 0, 5, rng);
  auto& steps = obs::MetricsRegistry::global().histogram("linalg.lanczos_iters");
  const std::uint64_t samples0 = steps.summary().count;
  ShiftInvertLanczosWorkspace ws;
  EXPECT_FALSE(ShiftInvertLanczos::smallest_positive(g, neg, symbolic, ws, &g_factor)
                   .has_value());
  EXPECT_FALSE(ShiftInvertLanczos::smallest_positive(g, neg).has_value());
  EXPECT_EQ(steps.summary().count, samples0);
}

TEST(ShiftInvertLanczos, ShapeMismatchThrows) {
  TripletList t(2, 2);
  t.add(0, 0, 1.0);
  t.add(1, 1, 1.0);
  const SparseMatrix g = SparseMatrix::from_triplets(t);
  Vector d(3);
  EXPECT_THROW(ShiftInvertLanczos::smallest_positive(g, d), std::invalid_argument);
}

}  // namespace
}  // namespace tfc::linalg
