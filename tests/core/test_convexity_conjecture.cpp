#include <gtest/gtest.h>

#include "core/conjecture.h"
#include "core/convexity.h"

namespace tfc::core {
namespace {

thermal::PackageGeometry small_geom() {
  thermal::PackageGeometry g;
  g.tile_rows = g.tile_cols = 4;
  g.die_width = g.die_height = 2e-3;
  return g;
}

tec::ElectroThermalSystem deployed_system() {
  TileMask dep(4, 4);
  dep.set(1, 1);
  dep.set(2, 2);
  linalg::Vector p(16, 0.08);
  p[5] = 0.5;
  return tec::ElectroThermalSystem::assemble(small_geom(), dep, p,
                                             tec::TecDeviceParams::chowdhury_superlattice());
}

TEST(Convexity, CertifiesRealDeployment) {
  auto cert = certify_convexity(deployed_system());
  EXPECT_TRUE(cert.certified);
  EXPECT_GE(cert.min_functional, 0.0);
  EXPECT_GT(cert.lambda_m, 0.0);
  EXPECT_GT(cert.solves, 0u);
}

TEST(Convexity, ThrowsWithoutTecs) {
  auto sys = tec::ElectroThermalSystem::assemble(small_geom(), TileMask(),
                                                 linalg::Vector(16, 0.1),
                                                 tec::TecDeviceParams::chowdhury_superlattice());
  EXPECT_THROW(certify_convexity(sys), std::invalid_argument);
}

TEST(Convexity, CertificateBacksActualSecondDifferences) {
  // Cross-check the certificate against sampled curvature of tile temps.
  auto sys = deployed_system();
  auto cert = certify_convexity(sys);
  ASSERT_TRUE(cert.certified);
  const double hi = 0.95 * cert.lambda_m;
  const int n = 10;
  std::vector<linalg::Vector> tiles;
  for (int s = 0; s <= n; ++s) {
    auto op = sys.solve(hi * double(s) / double(n));
    ASSERT_TRUE(op.has_value());
    tiles.push_back(op->tile_temperatures);
  }
  for (int s = 1; s + 1 <= n; ++s) {
    for (std::size_t k = 0; k < 16; ++k) {
      EXPECT_GE(tiles[s - 1][k] + tiles[s + 1][k] - 2.0 * tiles[s][k], -1e-6);
    }
  }
}

TEST(Conjecture, CampaignFindsNoViolations) {
  ConjectureCampaignOptions o;
  o.sizes = {2, 3, 5, 8};
  o.matrices_per_size = 10;
  auto rep = run_conjecture_campaign(o);
  EXPECT_EQ(rep.matrices_checked, 80u);  // 2 families × 4 sizes × 10
  EXPECT_EQ(rep.violations, 0u);
  EXPECT_GT(rep.pairs_checked_at_least, 0u);
}

TEST(Conjecture, DeterministicInSeed) {
  ConjectureCampaignOptions o;
  o.sizes = {4};
  o.matrices_per_size = 5;
  auto a = run_conjecture_campaign(o);
  auto b = run_conjecture_campaign(o);
  EXPECT_EQ(a.matrices_checked, b.matrices_checked);
  EXPECT_EQ(a.violations, b.violations);
}

TEST(Conjecture, PairBudgetCapsWork) {
  ConjectureCampaignOptions o;
  o.sizes = {6};
  o.matrices_per_size = 3;
  o.pair_budget = 4;
  auto rep = run_conjecture_campaign(o);
  EXPECT_EQ(rep.violations, 0u);
  EXPECT_EQ(rep.pairs_checked_at_least, 6u * 4u);
}

}  // namespace
}  // namespace tfc::core
