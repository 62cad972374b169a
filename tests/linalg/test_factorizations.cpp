#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "linalg/cholesky.h"
#include "linalg/lu.h"
#include "linalg/random_stieltjes.h"

namespace tfc::linalg {
namespace {

DenseMatrix random_spd(std::size_t n, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  DenseMatrix b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) b(i, j) = u(rng);
  }
  DenseMatrix a = b * b.transposed();
  for (std::size_t i = 0; i < n; ++i) a(i, i) += double(n);  // well conditioned
  return a;
}

TEST(Cholesky, Small2x2) {
  DenseMatrix a{{4.0, 2.0}, {2.0, 3.0}};
  auto f = CholeskyFactor::factor(a);
  ASSERT_TRUE(f.has_value());
  EXPECT_DOUBLE_EQ(f->l()(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(f->l()(1, 0), 1.0);
  EXPECT_NEAR(f->l()(1, 1), std::sqrt(2.0), 1e-15);
}

TEST(Cholesky, ReconstructsMatrix) {
  std::mt19937_64 rng(42);
  DenseMatrix a = random_spd(8, rng);
  auto f = CholeskyFactor::factor(a);
  ASSERT_TRUE(f.has_value());
  DenseMatrix llt = f->l() * f->l().transposed();
  EXPECT_LT(llt.max_abs_diff(a), 1e-10);
}

TEST(Cholesky, SolveMatchesResidual) {
  std::mt19937_64 rng(7);
  DenseMatrix a = random_spd(12, rng);
  Vector b(12);
  for (std::size_t i = 0; i < 12; ++i) b[i] = std::sin(double(i));
  auto f = CholeskyFactor::factor(a);
  ASSERT_TRUE(f.has_value());
  Vector x = f->solve(b);
  Vector r = a * x - b;
  EXPECT_LT(norm2(r), 1e-10 * norm2(b) + 1e-12);
}

TEST(Cholesky, FailsOnIndefinite) {
  DenseMatrix a{{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3, -1
  EXPECT_FALSE(CholeskyFactor::factor(a).has_value());
  EXPECT_FALSE(is_positive_definite(a));
}

TEST(Cholesky, FailsOnSingular) {
  DenseMatrix a{{1.0, 1.0}, {1.0, 1.0}};
  EXPECT_FALSE(CholeskyFactor::factor(a).has_value());
}

TEST(Cholesky, NonSquareThrows) {
  DenseMatrix a(2, 3);
  EXPECT_THROW(CholeskyFactor::factor(a), std::invalid_argument);
}

TEST(Cholesky, InverseColumnAndFullInverse) {
  std::mt19937_64 rng(3);
  DenseMatrix a = random_spd(6, rng);
  auto f = CholeskyFactor::factor(a);
  ASSERT_TRUE(f.has_value());
  DenseMatrix inv = f->inverse();
  DenseMatrix prod = a * inv;
  EXPECT_LT(prod.max_abs_diff(DenseMatrix::identity(6)), 1e-10);
  Vector c2 = f->inverse_column(2);
  EXPECT_TRUE(approx_equal(c2, inv.col(2), 1e-12));
}

TEST(Cholesky, LogDetMatchesLu) {
  std::mt19937_64 rng(11);
  DenseMatrix a = random_spd(7, rng);
  auto f = CholeskyFactor::factor(a);
  ASSERT_TRUE(f.has_value());
  EXPECT_NEAR(f->log_det(), std::log(determinant(a)), 1e-8);
}

TEST(Lu, SolveGeneralMatrix) {
  DenseMatrix a{{0.0, 2.0, 1.0}, {1.0, 0.0, 0.0}, {4.0, 1.0, 2.0}};  // needs pivoting
  auto f = LuFactor::factor(a);
  ASSERT_TRUE(f.has_value());
  Vector b{3.0, 1.0, 7.0};
  Vector x = f->solve(b);
  Vector r = a * x - b;
  EXPECT_LT(norm2(r), 1e-12);
}

TEST(Lu, DeterminantKnown) {
  DenseMatrix a{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_NEAR(determinant(a), -2.0, 1e-14);
}

TEST(Lu, SingularDetected) {
  DenseMatrix a{{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_FALSE(LuFactor::factor(a).has_value());
  EXPECT_EQ(determinant(a), 0.0);
}

TEST(Lu, PermutationParityInDeterminant) {
  // Row-swapped identity has determinant -1.
  DenseMatrix a{{0.0, 1.0}, {1.0, 0.0}};
  EXPECT_NEAR(determinant(a), -1.0, 1e-14);
}

// Property sweep: both factorizations agree on PD Stieltjes matrices of
// varying size.
class FactorizationSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FactorizationSweep, AllSolversAgreeOnStieltjes) {
  const std::size_t n = GetParam();
  std::mt19937_64 rng(1000 + n);
  DenseMatrix a = random_pd_stieltjes(n, rng);
  Vector b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = 0.1 * double(i) + 1.0;

  auto chol = CholeskyFactor::factor(a);
  auto lu = LuFactor::factor(a);
  ASSERT_TRUE(chol && lu);
  Vector x1 = chol->solve(b);
  Vector x3 = lu->solve(b);
  EXPECT_TRUE(approx_equal(x1, x3, 1e-8));
  EXPECT_LT(norm2(a * x1 - b), 1e-8 * norm2(b) + 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FactorizationSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55));

}  // namespace
}  // namespace tfc::linalg
