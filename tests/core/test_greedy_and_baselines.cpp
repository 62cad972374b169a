#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/baselines.h"
#include "core/greedy_deploy.h"

namespace tfc::core {
namespace {

thermal::PackageGeometry small_geom() {
  thermal::PackageGeometry g;
  g.tile_rows = g.tile_cols = 6;
  g.die_width = g.die_height = 3e-3;
  return g;
}

std::shared_ptr<const thermal::StackSpec> small_spec() {
  return std::make_shared<const thermal::StackSpec>(
      thermal::StackSpec::single_die(small_geom()));
}

/// small_spec() with TEC-capable sites only at \p sites.
std::shared_ptr<const thermal::StackSpec> spec_with_sites(std::vector<Tile> sites) {
  thermal::StackSpec s = thermal::StackSpec::single_die(small_geom());
  s.chips[0].layers[1].tec_sites = std::move(sites);
  s.validate();
  return std::make_shared<const thermal::StackSpec>(std::move(s));
}

linalg::Vector hot_map() {
  linalg::Vector p(36, 0.10);
  p[2 * 6 + 2] = 0.65;
  p[2 * 6 + 3] = 0.65;
  p[3 * 6 + 2] = 0.55;
  return p;
}

tec::TecDeviceParams dev() { return tec::TecDeviceParams::chowdhury_superlattice(); }

TEST(GreedyDeploy, CoolChipNeedsNoTecs) {
  GreedyDeployOptions o;
  o.theta_max = thermal::to_kelvin(120.0);  // generous limit
  auto r = greedy_deploy(small_spec(), hot_map(), dev(), o);
  EXPECT_TRUE(r.success);
  EXPECT_TRUE(r.deployment.empty());
  EXPECT_EQ(r.current, 0.0);
  EXPECT_EQ(r.iterations.size(), 0u);
  EXPECT_DOUBLE_EQ(r.peak_tile_temperature, r.peak_without_tec);
}

TEST(GreedyDeploy, HotChipGetsCoveredAndMeetsLimit) {
  GreedyDeployOptions o;
  o.theta_max = thermal::to_kelvin(66.0);
  auto r = greedy_deploy(small_spec(), hot_map(), dev(), o);
  ASSERT_TRUE(r.success);
  EXPECT_GE(r.deployment.count(), 3u);
  EXPECT_LE(r.peak_tile_temperature, o.theta_max);
  EXPECT_GT(r.current, 0.0);
  EXPECT_GT(r.tec_input_power, 0.0);
  ASSERT_TRUE(r.lambda_m.has_value());
  EXPECT_LT(r.current, *r.lambda_m);
  // The three hot tiles themselves must be covered (they exceed the limit
  // in the passive solve).
  EXPECT_TRUE(r.deployment.test(2, 2));
  EXPECT_TRUE(r.deployment.test(2, 3));
  EXPECT_TRUE(r.deployment.test(3, 2));
}

TEST(GreedyDeploy, TighterLimitNeedsMoreTecs) {
  GreedyDeployOptions loose, tight;
  loose.theta_max = thermal::to_kelvin(66.0);
  tight.theta_max = thermal::to_kelvin(62.0);
  auto a = greedy_deploy(small_spec(), hot_map(), dev(), loose);
  auto b = greedy_deploy(small_spec(), hot_map(), dev(), tight);
  ASSERT_TRUE(a.success && b.success);
  EXPECT_GT(b.deployment.count(), a.deployment.count());
}

TEST(GreedyDeploy, ImpossibleLimitFails) {
  GreedyDeployOptions o;
  o.theta_max = thermal::to_kelvin(46.0);  // 1 K above ambient: hopeless
  auto r = greedy_deploy(small_spec(), hot_map(), dev(), o);
  EXPECT_FALSE(r.success);
  EXPECT_FALSE(r.deployment.empty());
  EXPECT_GT(r.peak_tile_temperature, o.theta_max);
}

TEST(GreedyDeploy, IterationHistoryConsistent) {
  GreedyDeployOptions o;
  o.theta_max = thermal::to_kelvin(62.0);
  auto r = greedy_deploy(small_spec(), hot_map(), dev(), o);
  ASSERT_TRUE(r.success);
  ASSERT_FALSE(r.iterations.empty());
  // Deployment only grows; the last iteration has no tiles over the limit.
  std::size_t prev = 0;
  for (const auto& it : r.iterations) {
    EXPECT_GE(it.tecs_deployed, prev);
    prev = it.tecs_deployed;
  }
  EXPECT_EQ(r.iterations.back().tiles_over_limit, 0u);
  EXPECT_EQ(r.iterations.back().tecs_deployed, r.deployment.count());
}

TEST(GreedyDeploy, CoverageMarginAddsDevices) {
  GreedyDeployOptions plain, margin;
  plain.theta_max = margin.theta_max = thermal::to_kelvin(66.0);
  margin.coverage_margin = 2.0;
  auto a = greedy_deploy(small_spec(), hot_map(), dev(), plain);
  auto b = greedy_deploy(small_spec(), hot_map(), dev(), margin);
  ASSERT_TRUE(a.success && b.success);
  EXPECT_GE(b.deployment.count(), a.deployment.count());
  // Margin deployment still contains the paper's over-limit set.
  EXPECT_TRUE(a.deployment.subset_of(b.deployment));
  // Both meet the limit.
  EXPECT_LE(b.peak_tile_temperature, margin.theta_max);
}

TEST(GreedyDeploy, NegativeMarginRejected) {
  GreedyDeployOptions o;
  o.coverage_margin = -1.0;
  EXPECT_THROW(greedy_deploy(small_spec(), hot_map(), dev(), o), std::invalid_argument);
}

TEST(GreedyDeploy, ZeroMarginIsPaperExact) {
  GreedyDeployOptions plain, zero_margin;
  plain.theta_max = zero_margin.theta_max = thermal::to_kelvin(64.0);
  zero_margin.coverage_margin = 0.0;
  auto a = greedy_deploy(small_spec(), hot_map(), dev(), plain);
  auto b = greedy_deploy(small_spec(), hot_map(), dev(), zero_margin);
  EXPECT_EQ(a.deployment, b.deployment);
  EXPECT_EQ(a.current, b.current);
}

TEST(GreedyDeploy, InvalidDeviceThrows) {
  auto d = dev();
  d.seebeck = -1.0;
  EXPECT_THROW(greedy_deploy(small_spec(), hot_map(), d), std::invalid_argument);
}

TEST(Baselines, FullCoverCoversEverything) {
  auto r = full_cover(small_spec(), hot_map(), dev());
  EXPECT_EQ(r.deployment.count(), 36u);
  EXPECT_GT(r.optimum.current, 0.0);
  EXPECT_DOUBLE_EQ(r.min_peak_temperature, r.optimum.peak_tile_temperature);
}

TEST(Baselines, FullCoverStillCools) {
  auto sys = tec::ElectroThermalSystem::assemble(small_geom(), TileMask(), hot_map(), dev());
  const double peak0 = sys.solve(0.0)->peak_tile_temperature;
  auto r = full_cover(small_spec(), hot_map(), dev());
  EXPECT_LT(r.min_peak_temperature, peak0);
}

TEST(Baselines, ThresholdCoverPicksHottestTiles) {
  auto r = threshold_cover(small_spec(), hot_map(), dev(), 3);
  EXPECT_EQ(r.deployment.count(), 3u);
  // The three injected hot tiles are the three hottest.
  EXPECT_TRUE(r.deployment.test(2, 2));
  EXPECT_TRUE(r.deployment.test(2, 3));
  EXPECT_TRUE(r.deployment.test(3, 2));
}

TEST(Baselines, ThresholdCoverValidatesK) {
  EXPECT_THROW(threshold_cover(small_spec(), hot_map(), dev(), 0), std::invalid_argument);
  EXPECT_THROW(threshold_cover(small_spec(), hot_map(), dev(), 37),
               std::invalid_argument);
}

TEST(Baselines, ThresholdCoverRanksOnlyTecCapableSites) {
  // The two hottest tiles, (2, 2) and (2, 3), cannot carry a device.
  const auto spec = spec_with_sites({{0, 0}, {3, 2}, {5, 5}});
  auto r = threshold_cover(spec, hot_map(), dev(), 1);
  EXPECT_EQ(r.deployment.count(), 1u);
  EXPECT_TRUE(r.deployment.test(3, 2));  // the hottest capable site
  // k ranges over the capable sites, not the tiles.
  EXPECT_EQ(threshold_cover(spec, hot_map(), dev(), 3).deployment,
            spec->tec_allowed_tiles());
  EXPECT_THROW(threshold_cover(spec, hot_map(), dev(), 4), std::invalid_argument);
  EXPECT_THROW(threshold_cover(nullptr, hot_map(), dev(), 1), std::invalid_argument);
}

TEST(Baselines, GreedyBeatsOrMatchesThresholdWithSameBudget) {
  // With the same device count, covering the over-limit tiles (greedy's
  // choice here equals the hottest tiles) can't be worse than an arbitrary
  // threshold pick of the same size.
  GreedyDeployOptions o;
  o.theta_max = thermal::to_kelvin(66.0);
  auto g = greedy_deploy(small_spec(), hot_map(), dev(), o);
  ASSERT_TRUE(g.success);
  auto t = threshold_cover(small_spec(), hot_map(), dev(), g.deployment.count());
  EXPECT_LE(g.peak_tile_temperature, t.min_peak_temperature + 0.05);
}

}  // namespace
}  // namespace tfc::core
