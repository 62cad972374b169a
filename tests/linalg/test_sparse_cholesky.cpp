#include "linalg/sparse_cholesky.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <utility>

#include "linalg/cholesky.h"
#include "linalg/ordering.h"
#include "linalg/random_stieltjes.h"

namespace tfc::linalg {
namespace {

SparseMatrix grid_laplacian(std::size_t rows, std::size_t cols, double ground) {
  const std::size_t n = rows * cols;
  auto id = [cols](std::size_t r, std::size_t c) { return r * cols + c; };
  TripletList t(n, n);
  std::vector<double> diag(n, ground);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) {
        t.add_symmetric(id(r, c), id(r, c + 1), -1.0);
        diag[id(r, c)] += 1.0;
        diag[id(r, c + 1)] += 1.0;
      }
      if (r + 1 < rows) {
        t.add_symmetric(id(r, c), id(r + 1, c), -1.0);
        diag[id(r, c)] += 1.0;
        diag[id(r + 1, c)] += 1.0;
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) t.add(i, i, diag[i]);
  return SparseMatrix::from_triplets(t);
}

TEST(SparseCholesky, SolvesGridSystem) {
  auto a = grid_laplacian(8, 9, 0.5);
  auto f = SparseCholeskyFactor::factor(a);
  ASSERT_TRUE(f.has_value());
  Vector b(a.rows());
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = double(i % 7);
  Vector x = f->solve(b);
  EXPECT_LT(norm2(a * x - b), 1e-9 * norm2(b));
}

TEST(SparseCholesky, MatchesDenseCholesky) {
  std::mt19937_64 rng(17);
  DenseMatrix d = random_pd_stieltjes(25, rng);
  auto a = SparseMatrix::from_dense(d);
  auto fs = SparseCholeskyFactor::factor(a);
  auto fd = CholeskyFactor::factor(d);
  ASSERT_TRUE(fs && fd);
  Vector b(25);
  for (std::size_t i = 0; i < 25; ++i) b[i] = std::cos(double(i));
  EXPECT_TRUE(approx_equal(fs->solve(b), fd->solve(b), 1e-9));
  EXPECT_NEAR(fs->log_det(), fd->log_det(), 1e-8);
}

/// Permutation check: every new index appears exactly once.
void expect_valid_permutation(const std::vector<std::size_t>& perm, std::size_t n) {
  ASSERT_EQ(perm.size(), n);
  std::vector<bool> seen(n, false);
  for (auto p : perm) {
    ASSERT_LT(p, n);
    EXPECT_FALSE(seen[p]);
    seen[p] = true;
  }
}

/// Symmetric pattern with a dominant diagonal (SPD) from an edge list.
SparseMatrix from_edges(std::size_t n,
                        const std::vector<std::pair<std::size_t, std::size_t>>& edges) {
  TripletList t(n, n);
  std::vector<double> diag(n, 1.0);
  for (const auto& [i, j] : edges) {
    t.add_symmetric(i, j, -1.0);
    diag[i] += 1.0;
    diag[j] += 1.0;
  }
  for (std::size_t i = 0; i < n; ++i) t.add(i, i, diag[i]);
  return SparseMatrix::from_triplets(t);
}

SparseMatrix shuffled_grid(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  auto a = grid_laplacian(rows, cols, 0.5);
  std::vector<std::size_t> shuffle(a.rows());
  for (std::size_t i = 0; i < shuffle.size(); ++i) shuffle[i] = i;
  std::mt19937_64 rng(seed);
  std::shuffle(shuffle.begin(), shuffle.end(), rng);
  return permute_symmetric(a, shuffle);
}

TEST(SparseCholesky, AmdSolvesMatchDenseOracle) {
  std::mt19937_64 rng(31);
  const std::vector<SparseMatrix> cases = {
      grid_laplacian(5, 5, 1.0), grid_laplacian(9, 7, 0.25), shuffled_grid(8, 8, 3),
      SparseMatrix::from_dense(random_pd_stieltjes(30, rng))};
  for (const SparseMatrix& a : cases) {
    auto fs = SparseCholeskyFactor::factor(a);
    auto fd = CholeskyFactor::factor(a.to_dense());
    ASSERT_TRUE(fs && fd);
    Vector b(a.rows());
    for (std::size_t i = 0; i < b.size(); ++i) b[i] = std::sin(double(i) + 0.5);
    EXPECT_TRUE(approx_equal(fs->solve(b), fd->solve(b), 1e-10));
    EXPECT_NEAR(fs->log_det(), fd->log_det(), 1e-10 * std::abs(fd->log_det()) + 1e-12);
  }
}

TEST(SparseCholesky, MinDegreeReducesFillOnGrid) {
  // On an r×c grid the natural (row-major) order fills the whole band:
  // row k of L holds min(k, c) off-diagonal entries. Minimum degree
  // produces far less.
  const std::size_t r = 18, c = 18;
  auto a = grid_laplacian(r, c, 0.5);
  std::size_t banded = 0;
  for (std::size_t k = 0; k < r * c; ++k) banded += 1 + std::min(k, c);
  const auto symbolic = SparseCholeskySymbolic::analyze(a);
  EXPECT_LT(2 * symbolic.factor_nnz(), banded);
  auto f = SparseCholeskyFactor::factor(a);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->factor_nnz(), symbolic.factor_nnz());
}

TEST(Ordering, MinimumDegreeIsValidPermutation) {
  auto a = grid_laplacian(7, 9, 1.0);
  expect_valid_permutation(approximate_minimum_degree(a), a.rows());
}

TEST(Ordering, MinimumDegreeStartsWithLowestDegreeNode) {
  // On a star graph the leaves (degree 1) must be eliminated before the hub.
  TripletList t(5, 5);
  for (std::size_t leaf = 1; leaf < 5; ++leaf) t.add_symmetric(0, leaf, -1.0);
  for (std::size_t i = 0; i < 5; ++i) t.add(i, i, 5.0);
  auto a = SparseMatrix::from_triplets(t);
  auto perm = approximate_minimum_degree(a);
  // The hub (degree 4) cannot be eliminated before at least three leaves
  // have gone (until then every leaf has strictly smaller degree).
  EXPECT_GE(perm[0], 3u);
  // Star elimination in leaf-first order creates zero fill.
  auto f = SparseCholeskyFactor::factor(a);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->factor_nnz(), 5u + 4u);  // diagonal + one entry per leaf
}

TEST(Ordering, AmdValidPermutationOnEdgePatterns) {
  const auto empty = SparseMatrix::from_triplets(TripletList(0, 0));
  EXPECT_TRUE(approximate_minimum_degree(empty).empty());
  expect_valid_permutation(approximate_minimum_degree(SparseMatrix::identity(1)), 1);
  expect_valid_permutation(approximate_minimum_degree(SparseMatrix::identity(7)), 7);

  // Disconnected: a path, a triangle and an isolated node.
  const auto disconnected = from_edges(7, {{0, 1}, {1, 2}, {3, 4}, {4, 5}, {3, 5}});
  expect_valid_permutation(approximate_minimum_degree(disconnected), 7);

  // Star with 40 leaves: elimination leaf-first creates no fill.
  std::vector<std::pair<std::size_t, std::size_t>> star;
  for (std::size_t leaf = 1; leaf <= 40; ++leaf) star.push_back({0, leaf});
  const auto star_a = from_edges(41, star);
  expect_valid_permutation(approximate_minimum_degree(star_a), 41);
  EXPECT_EQ(SparseCholeskySymbolic::analyze(star_a).factor_nnz(), 41u + 40u);

  // One dense row on top of a 10×10 grid: node 100 touches every node.
  auto grid = grid_laplacian(10, 10, 1.0);
  TripletList t(101, 101);
  for (std::size_t r = 0; r < 100; ++r) {
    for (std::size_t q = grid.row_ptr()[r]; q < grid.row_ptr()[r + 1]; ++q) {
      t.add(r, grid.col_idx()[q], grid.values()[q]);
    }
    t.add_symmetric(r, 100, -0.01);
  }
  t.add(100, 100, 10.0);
  const auto dense_row = SparseMatrix::from_triplets(t);
  const auto perm = approximate_minimum_degree(dense_row);
  expect_valid_permutation(perm, 101);
  EXPECT_TRUE(SparseCholeskyFactor::factor(dense_row).has_value());

  // Duplicate rows: K_{4,6} (the 4 rows and the 6 columns are each
  // indistinguishable — supervariables) plus a 5-clique (mass elimination).
  std::vector<std::pair<std::size_t, std::size_t>> dup;
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 4; j < 10; ++j) dup.push_back({i, j});
  }
  for (std::size_t i = 10; i < 15; ++i) {
    for (std::size_t j = i + 1; j < 15; ++j) dup.push_back({i, j});
  }
  const auto dup_a = from_edges(15, dup);
  expect_valid_permutation(approximate_minimum_degree(dup_a), 15);
  // The 5-clique adds 10 off-diagonal entries. K_{4,6} fills least (30)
  // with the 6-side first; AMD takes two 6-side nodes (4 entries each),
  // then the merged 4-side supervariable (its degree ties and it is the
  // newest in its list), which leaves one 8-node clique: 4 + 4 + 28 = 36.
  EXPECT_EQ(SparseCholeskySymbolic::analyze(dup_a).factor_nnz(), 15u + 36u + 10u);
}

TEST(Ordering, AmdIsDeterministicAndPermutationInvariantInFill) {
  const auto grid = grid_laplacian(20, 20, 0.5);
  const auto perm = approximate_minimum_degree(grid);
  EXPECT_EQ(perm, approximate_minimum_degree(grid));
  const std::size_t nnz = SparseCholeskySymbolic::analyze(grid).factor_nnz();
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const auto shuffled = shuffled_grid(20, 20, seed);
    EXPECT_EQ(approximate_minimum_degree(shuffled), approximate_minimum_degree(shuffled));
    // A relabelled grid orders differently but fills about as little.
    const auto symbolic = SparseCholeskySymbolic::analyze(shuffled);
    EXPECT_LT(double(symbolic.factor_nnz()), 1.3 * double(nnz)) << "seed " << seed;
  }
}

TEST(SparseCholesky, DetectsIndefinite) {
  DenseMatrix d{{1.0, 2.0}, {2.0, 1.0}};
  auto a = SparseMatrix::from_dense(d);
  EXPECT_FALSE(SparseCholeskyFactor::factor(a).has_value());
  EXPECT_FALSE(is_positive_definite(a));
}

TEST(SparseCholesky, DetectsSingular) {
  // Pure Neumann Laplacian (no grounding) is singular.
  auto a = grid_laplacian(4, 4, 0.0);
  EXPECT_FALSE(SparseCholeskyFactor::factor(a).has_value());
}

TEST(SparseCholesky, InverseColumnMatchesDense) {
  std::mt19937_64 rng(23);
  DenseMatrix d = random_pd_stieltjes(12, rng);
  auto a = SparseMatrix::from_dense(d);
  auto fs = SparseCholeskyFactor::factor(a);
  ASSERT_TRUE(fs.has_value());
  DenseMatrix inv = CholeskyFactor::factor(d)->inverse();
  for (std::size_t j : {std::size_t{0}, std::size_t{5}, std::size_t{11}}) {
    EXPECT_TRUE(approx_equal(fs->inverse_column(j), inv.col(j), 1e-9));
  }
}

TEST(SparseCholesky, FactorNnzIncludesDiagonal) {
  auto a = SparseMatrix::identity(6);
  auto f = SparseCholeskyFactor::factor(a);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->factor_nnz(), 6u);
}

TEST(Ordering, PermuteSymmetricPreservesValues) {
  auto a = grid_laplacian(3, 3, 1.0);
  auto perm = approximate_minimum_degree(a);
  auto b = permute_symmetric(a, perm);
  // Spectra are permutation invariant: check via quadratic forms.
  Vector x(9);
  for (std::size_t i = 0; i < 9; ++i) x[i] = double(i);
  Vector px = permute(x, perm);
  EXPECT_NEAR(dot(x, a * x), dot(px, b * px), 1e-10);
}

TEST(Ordering, InvertPermutationRoundTrips) {
  std::vector<std::size_t> p{2, 0, 3, 1};
  auto inv = invert_permutation(p);
  for (std::size_t i = 0; i < p.size(); ++i) EXPECT_EQ(inv[p[i]], i);
  Vector v{1.0, 2.0, 3.0, 4.0};
  EXPECT_TRUE(approx_equal(permute(permute(v, p), inv), v, 0.0));
}

TEST(Ordering, HandlesDisconnectedGraph) {
  // Two disconnected 2-node components.
  TripletList t(4, 4);
  t.add_symmetric(0, 1, -1.0);
  t.add_symmetric(2, 3, -1.0);
  for (std::size_t i = 0; i < 4; ++i) t.add(i, i, 2.0);
  auto a = SparseMatrix::from_triplets(t);
  expect_valid_permutation(approximate_minimum_degree(a), 4);
  // And factorization must still work.
  EXPECT_TRUE(SparseCholeskyFactor::factor(a).has_value());
}

class SparseCholeskyGridSweep
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(SparseCholeskyGridSweep, ResidualSmall) {
  const auto [r, c] = GetParam();
  auto a = grid_laplacian(r, c, 0.25);
  auto f = SparseCholeskyFactor::factor(a);
  ASSERT_TRUE(f.has_value());
  Vector b(a.rows(), 1.0);
  Vector x = f->solve(b);
  EXPECT_LT(norm2(a * x - b), 1e-9 * norm2(b));
}

INSTANTIATE_TEST_SUITE_P(Grids, SparseCholeskyGridSweep,
                         ::testing::Values(std::pair<std::size_t, std::size_t>{1, 1},
                                           std::pair<std::size_t, std::size_t>{1, 20},
                                           std::pair<std::size_t, std::size_t>{12, 12},
                                           std::pair<std::size_t, std::size_t>{20, 30}));

}  // namespace
}  // namespace tfc::linalg
