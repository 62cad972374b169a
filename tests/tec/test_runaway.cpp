#include "tec/runaway.h"

#include <gtest/gtest.h>

#include "linalg/cholesky.h"
#include "linalg/eigen.h"
#include "linalg/properties.h"

namespace tfc::tec {
namespace {

thermal::PackageGeometry small_geom() {
  thermal::PackageGeometry g;
  g.tile_rows = 4;
  g.tile_cols = 4;
  g.die_width = 2e-3;
  g.die_height = 2e-3;
  return g;
}

ElectroThermalSystem make_system(std::size_t num_tecs = 3) {
  TileMask dep(4, 4);
  if (num_tecs >= 1) dep.set(1, 1);
  if (num_tecs >= 2) dep.set(1, 2);
  if (num_tecs >= 3) dep.set(2, 1);
  linalg::Vector p(16, 0.08);
  p[5] = 0.5;
  return ElectroThermalSystem::assemble(small_geom(), dep, p,
                                        TecDeviceParams::chowdhury_superlattice());
}

/// The paper-faithful oracle: dense bisection on the full pencil (G, D).
std::optional<double> dense_oracle(const ElectroThermalSystem& sys) {
  linalg::PencilBisectionOptions opts;
  opts.rel_tol = 1e-12;
  return linalg::pencil_smallest_positive_eigenvalue(
      sys.matrix_g().to_dense(), linalg::DenseMatrix::diagonal(sys.d_diagonal()), opts);
}

TEST(Runaway, SchurAndDenseAgree) {
  // schur_reduction is exact: dense bisection on the reduced pencil (S₀, D_T)
  // finds the full pencil's λ_m.
  for (std::size_t devices : {1u, 2u, 3u}) {
    auto sys = make_system(devices);
    auto red = schur_reduction(sys);
    linalg::PencilBisectionOptions opts;
    opts.rel_tol = 1e-12;
    auto reduced = linalg::pencil_smallest_positive_eigenvalue(
        red.s0, linalg::DenseMatrix::diagonal(red.d_diag), opts);
    auto full = dense_oracle(sys);
    ASSERT_TRUE(reduced && full) << devices << " devices";
    EXPECT_NEAR(*reduced, *full, 1e-8 * *full) << devices << " devices";
  }
}

TEST(Runaway, SparseAgreesWithDenseOracleTo1e8) {
  // One to three devices: the smallest TEC sets, down to a rank-2 D.
  for (std::size_t devices : {1u, 2u, 3u}) {
    auto sys = make_system(devices);
    auto a = runaway_limit(sys);
    auto b = dense_oracle(sys);
    ASSERT_TRUE(a && b) << devices << " devices";
    EXPECT_NEAR(*a, *b, 1e-8 * *b) << devices << " devices";
  }
}

TEST(Runaway, SparseIsTheDefaultMethod) {
  auto r = runaway_limit_ex(make_system());
  ASSERT_TRUE(r.lambda_m.has_value());
  EXPECT_GT(r.iterations, 0u);
  // Krylov exhaustion bound: ≤ rank(D)+1 = 2·devices+1 steps.
  EXPECT_LE(r.iterations, 2u * 3u + 1u);
}

TEST(Runaway, SparseReusesPooledWorkspace) {
  auto sys = make_system();
  linalg::ShiftInvertLanczosWorkspace ws;
  auto cold = runaway_limit_ex(sys, &ws);
  auto warm = runaway_limit_ex(sys, &ws);
  ASSERT_TRUE(cold.lambda_m && warm.lambda_m);
  EXPECT_EQ(*cold.lambda_m, *warm.lambda_m);  // bit-identical on a warm ws
  EXPECT_EQ(cold.iterations, warm.iterations);
}

TEST(Runaway, NoTecsGivesNoLimit) {
  auto sys = ElectroThermalSystem::assemble(small_geom(), TileMask(),
                                            linalg::Vector(16, 0.1),
                                            TecDeviceParams::chowdhury_superlattice());
  EXPECT_FALSE(runaway_limit(sys).has_value());
}

TEST(Runaway, Theorem1PositiveDefinitenessSplitsAtLambdaM) {
  auto sys = make_system();
  auto lm = runaway_limit(sys);
  ASSERT_TRUE(lm.has_value());
  EXPECT_TRUE(
      linalg::is_positive_definite(sys.system_matrix(0.99 * *lm).to_dense()));
  EXPECT_FALSE(
      linalg::is_positive_definite(sys.system_matrix(1.01 * *lm).to_dense()));
}

TEST(Runaway, SolveReturnsNulloptBeyondLambdaM) {
  auto sys = make_system();
  auto lm = runaway_limit(sys);
  ASSERT_TRUE(lm.has_value());
  EXPECT_TRUE(sys.solve(0.9 * *lm).has_value());
  EXPECT_FALSE(sys.solve(1.1 * *lm).has_value());
}

TEST(Runaway, Theorem2TemperaturesDivergeApproachingLambdaM) {
  auto sys = make_system();
  auto lm = runaway_limit(sys);
  ASSERT_TRUE(lm.has_value());
  auto near = sys.solve(0.999 * *lm);
  auto mid = sys.solve(0.9 * *lm);
  ASSERT_TRUE(near && mid);
  // Every tile is dramatically hotter close to the limit.
  for (std::size_t k = 0; k < 16; ++k) {
    EXPECT_GT(near->tile_temperatures[k], mid->tile_temperatures[k]);
  }
  EXPECT_GT(near->peak_tile_temperature, 10.0 * mid->peak_tile_temperature);
}

TEST(Runaway, InversePositivityBelowLambdaM) {
  // Lemma 3 applied to G − i·D: H(i) ≥ 0 elementwise for 0 ≤ i < λ_m.
  auto sys = make_system(1);
  auto lm = runaway_limit(sys);
  ASSERT_TRUE(lm.has_value());
  for (double frac : {0.0, 0.5, 0.95}) {
    auto f = linalg::CholeskyFactor::factor(sys.system_matrix(frac * *lm).to_dense());
    ASSERT_TRUE(f.has_value());
    EXPECT_TRUE(linalg::is_nonnegative(f->inverse(), 1e-10));
  }
}

TEST(Runaway, MoreTecsLowerLimit) {
  // More Peltier coupling cannot raise the runaway current.
  auto one = runaway_limit(make_system(1));
  auto three = runaway_limit(make_system(3));
  ASSERT_TRUE(one && three);
  EXPECT_LE(*three, *one * (1.0 + 1e-9));
}

TEST(Runaway, WeakerHotContactLowersLimit) {
  // The hot-side contact "plays an important role in the thermal runaway
  // problem" (Section IV.B): choking it traps Peltier + Joule heat.
  auto dev = TecDeviceParams::chowdhury_superlattice();
  TileMask dep(4, 4);
  dep.set(1, 1);
  linalg::Vector p(16, 0.08);
  auto strong = ElectroThermalSystem::assemble(small_geom(), dep, p, dev);
  dev.g_hot_contact *= 0.25;
  auto weak = ElectroThermalSystem::assemble(small_geom(), dep, p, dev);
  auto lm_strong = runaway_limit(strong);
  auto lm_weak = runaway_limit(weak);
  ASSERT_TRUE(lm_strong && lm_weak);
  EXPECT_LT(*lm_weak, *lm_strong);
}

TEST(SchurReduction, BlockSizesAndDiagonal) {
  auto sys = make_system(2);
  auto red = schur_reduction(sys);
  EXPECT_EQ(red.s0.rows(), 4u);  // 2 devices × (hot + cold)
  EXPECT_EQ(red.tec_nodes.size(), 4u);
  // First half hot (+α), second half cold (−α).
  EXPECT_DOUBLE_EQ(red.d_diag[0], sys.device().seebeck);
  EXPECT_DOUBLE_EQ(red.d_diag[1], sys.device().seebeck);
  EXPECT_DOUBLE_EQ(red.d_diag[2], -sys.device().seebeck);
  EXPECT_DOUBLE_EQ(red.d_diag[3], -sys.device().seebeck);
  EXPECT_TRUE(linalg::is_symmetric(red.s0, 1e-9));
  EXPECT_TRUE(linalg::is_positive_definite(red.s0));
}

TEST(SchurReduction, ThrowsWithoutTecs) {
  auto sys = ElectroThermalSystem::assemble(small_geom(), TileMask(),
                                            linalg::Vector(16, 0.1),
                                            TecDeviceParams::chowdhury_superlattice());
  EXPECT_THROW(schur_reduction(sys), std::invalid_argument);
}

// Property sweep: the Schur reduction must certify positive definiteness of
// the full matrix at every probed current, on both sides of λ_m.
class SchurEquivalenceSweep : public ::testing::TestWithParam<double> {};

TEST_P(SchurEquivalenceSweep, PdEquivalence) {
  auto sys = make_system();
  auto red = schur_reduction(sys);
  auto lm = runaway_limit(sys);
  ASSERT_TRUE(lm.has_value());
  const double i = GetParam() * *lm;
  linalg::DenseMatrix reduced = red.s0;
  reduced -= linalg::DenseMatrix::diagonal(red.d_diag) * i;
  EXPECT_EQ(linalg::is_positive_definite(reduced),
            linalg::is_positive_definite(sys.system_matrix(i).to_dense()));
}

INSTANTIATE_TEST_SUITE_P(Fractions, SchurEquivalenceSweep,
                         ::testing::Values(0.0, 0.3, 0.8, 0.99, 1.02, 1.5, 3.0));

}  // namespace
}  // namespace tfc::tec
