#include "linalg/cg.h"

#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <stdexcept>

#include "linalg/cholesky.h"
#include "linalg/random_stieltjes.h"
#include "obs/obs.h"

namespace tfc::linalg {
namespace {

/// Iteration cap of the tests that expect convergence.
constexpr std::size_t kCap = 10000;

SparseMatrix laplacian_1d(std::size_t n, double ground = 1.0) {
  TripletList t(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double diag = (i == 0 || i + 1 == n) ? ground : 0.0;
    if (i > 0) {
      t.add_symmetric(i, i - 1, -1.0);
      diag += 1.0;
    }
    if (i + 1 < n) diag += 1.0;
    t.add(i, i, diag);
  }
  return SparseMatrix::from_triplets(t);
}

TEST(Cg, SolvesIdentityInstantly) {
  auto a = SparseMatrix::identity(4);
  Vector b{1.0, 2.0, 3.0, 4.0};
  auto r = conjugate_gradient(a, b, kCap);
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(approx_equal(r.x, b, 1e-12));
}

TEST(Cg, SolvesGroundedLaplacian) {
  auto a = laplacian_1d(50);
  Vector b(50, 1.0);
  auto r = conjugate_gradient(a, b, kCap);
  ASSERT_TRUE(r.converged);
  EXPECT_LT(norm2(a * r.x - b), 1e-10 * norm2(b));
}

TEST(Cg, MatchesDenseCholesky) {
  std::mt19937_64 rng(99);
  DenseMatrix d = random_pd_stieltjes(30, rng);
  auto a = SparseMatrix::from_dense(d);
  Vector b(30);
  for (std::size_t i = 0; i < 30; ++i) b[i] = double(i % 5) - 2.0;
  CgResult r = conjugate_gradient(a, b, kCap);
  ASSERT_TRUE(r.converged);
  Vector x_ch = CholeskyFactor::factor(d)->solve(b);
  EXPECT_TRUE(approx_equal(r.x, x_ch, 1e-8));
  // conjugate_gradient reports solver effort alongside the solution.
  EXPECT_GT(r.iterations, 0u);
  EXPECT_LT(r.residual_norm, 1e-10 * norm2(b));
}

TEST(Cg, ZeroRhsGivesZero) {
  auto a = laplacian_1d(10);
  Vector b(10);
  auto r = conjugate_gradient(a, b, kCap);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 0u);
  EXPECT_DOUBLE_EQ(norm2(r.x), 0.0);
}

TEST(Cg, MaxIterationsRespected) {
  auto a = laplacian_1d(200, 1e-6);  // nearly singular, slow convergence
  Vector b(200, 1.0);
  auto r = conjugate_gradient(a, b, 2);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, 2u);
}

TEST(Cg, NonConvergenceLogsWarning) {
  // Hitting max_iterations must emit a structured WARN with the reason.
  auto& logger = obs::Logger::global();
  const auto saved_level = logger.level();
  auto saved_sinks = logger.sinks();
  std::ostringstream captured;
  logger.set_sinks({std::make_shared<obs::TextSink>(captured)});
  logger.set_level(obs::Level::kWarn);

  auto a = laplacian_1d(200, 1e-6);
  Vector b(200, 1.0);
  auto r = conjugate_gradient(a, b, 2);

  logger.set_level(saved_level);
  logger.set_sinks(std::move(saved_sinks));

  EXPECT_FALSE(r.converged);
  const std::string text = captured.str();
  EXPECT_NE(text.find("cg_no_convergence"), std::string::npos);
  EXPECT_NE(text.find("reason=max_iterations"), std::string::npos);
}

TEST(Cg, NonSpdDetected) {
  // Indefinite matrix with an RHS exposing the negative-curvature direction:
  // CG must bail out, not loop forever.
  DenseMatrix d{{1.0, 2.0}, {2.0, 1.0}};
  auto a = SparseMatrix::from_dense(d);
  Vector b{1.0, -1.0};
  auto r = conjugate_gradient(a, b, kCap);
  EXPECT_FALSE(r.converged);
  EXPECT_LT(r.iterations, kCap);  // a breakdown, not the cap
}

TEST(Cg, DimensionMismatchThrows) {
  auto a = SparseMatrix::identity(3);
  Vector b(2);
  EXPECT_THROW(conjugate_gradient(a, b, kCap), std::invalid_argument);
}

TEST(Preconditioners, JacobiRequiresPositiveDiagonal) {
  // A non-positive diagonal entry proves A is not positive definite: the
  // Jacobi preconditioner refuses it before any iteration.
  TripletList t(2, 2);
  t.add(0, 0, 1.0);
  t.add(1, 1, -1.0);
  auto a = SparseMatrix::from_triplets(t);
  EXPECT_THROW(conjugate_gradient(a, Vector{1.0, 1.0}, kCap), std::invalid_argument);
}

class CgSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CgSizeSweep, ResidualBelowTolerance) {
  const std::size_t n = GetParam();
  auto a = laplacian_1d(n);
  Vector b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = std::sin(0.1 * double(i));
  auto r = conjugate_gradient(a, b, kCap);
  ASSERT_TRUE(r.converged);
  EXPECT_LT(norm2(a * r.x - b), 1e-9 * (norm2(b) + 1.0));
}

INSTANTIATE_TEST_SUITE_P(Sizes, CgSizeSweep, ::testing::Values(2, 10, 33, 100, 500));

}  // namespace
}  // namespace tfc::linalg
