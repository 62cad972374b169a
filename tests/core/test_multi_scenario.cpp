#include "core/multi_scenario.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

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

tec::TecDeviceParams dev() { return tec::TecDeviceParams::chowdhury_superlattice(); }

/// Two scenarios with disjoint hot spots; their fold (per-tile max) is hotter
/// than either.
std::vector<linalg::Vector> two_scenarios() {
  linalg::Vector a(36, 0.10), b(36, 0.10);
  a[2 * 6 + 2] = a[2 * 6 + 3] = 0.60;  // hot NW in scenario A
  b[4 * 6 + 4] = 0.65;                 // hot SE in scenario B
  return {a, b};
}

/// The tile limit θ_max [K] of a limit in °C.
double limit(double limit_c) { return thermal::to_kelvin(limit_c); }

TEST(MultiScenario, CoversBothHotSpots) {
  auto r = greedy_deploy_multi(small_spec(), two_scenarios(), dev(), limit(63.0));
  ASSERT_TRUE(r.success);
  EXPECT_TRUE(r.deployment.test(2, 2));
  EXPECT_TRUE(r.deployment.test(2, 3));
  EXPECT_TRUE(r.deployment.test(4, 4));
  ASSERT_EQ(r.scenario_peaks.size(), 2u);
  for (double p : r.scenario_peaks) EXPECT_LE(p, limit(63.0));
  EXPECT_DOUBLE_EQ(r.peak_tile_temperature,
                   std::max(r.scenario_peaks[0], r.scenario_peaks[1]));
}

TEST(MultiScenario, SingleScenarioMatchesPlainGreedy) {
  auto scenarios = two_scenarios();
  std::vector<linalg::Vector> one = {scenarios[0]};
  auto multi = greedy_deploy_multi(small_spec(), one, dev(), limit(63.0));
  auto plain = greedy_deploy(small_spec(), scenarios[0], dev(), limit(63.0));
  ASSERT_TRUE(multi.success && plain.success);
  EXPECT_EQ(multi.deployment, plain.deployment);
  EXPECT_NEAR(multi.current, plain.current, 0.05);
  EXPECT_NEAR(multi.peak_tile_temperature, plain.peak_tile_temperature, 0.01);
}

TEST(MultiScenario, NeverLargerThanFoldedWorstCase) {
  // Designing on the per-tile max map covers at least the union of scenario
  // hot spots; the scenario-aware design can only be equal or smaller.
  auto scenarios = two_scenarios();
  linalg::Vector folded(36);
  for (std::size_t t = 0; t < 36; ++t) {
    folded[t] = std::max(scenarios[0][t], scenarios[1][t]);
  }
  auto multi = greedy_deploy_multi(small_spec(), scenarios, dev(), limit(63.0));
  auto fold = greedy_deploy(small_spec(), folded, dev(), limit(63.0));
  ASSERT_TRUE(multi.success && fold.success);
  EXPECT_LE(multi.deployment.count(), fold.deployment.count());
}

TEST(MultiScenario, CoolScenariosNeedNothing) {
  std::vector<linalg::Vector> cool = {linalg::Vector(36, 0.02),
                                      linalg::Vector(36, 0.03)};
  auto r = greedy_deploy_multi(small_spec(), cool, dev(), limit(85.0));
  EXPECT_TRUE(r.success);
  EXPECT_TRUE(r.deployment.empty());
  EXPECT_EQ(r.iterations, 0u);
}

TEST(MultiScenario, ImpossibleLimitFails) {
  auto r = greedy_deploy_multi(small_spec(), two_scenarios(), dev(), limit(46.0));
  EXPECT_FALSE(r.success);
}

TEST(MultiScenario, CoverageClippedToTecCapableSites) {
  // Scenario B's hot spot (4, 4) cannot carry a device: the design covers
  // scenario A's hot spot, then fails without deploying outside the sites.
  const auto spec = spec_with_sites({{2, 2}, {2, 3}});
  auto r = greedy_deploy_multi(spec, two_scenarios(), dev(), limit(63.0));
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.deployment, spec->tec_allowed_tiles());
  EXPECT_EQ(r.iterations, 1u);

  // No over-limit tile is capable: nothing to deploy.
  const auto corner = spec_with_sites({{0, 0}});
  auto none = greedy_deploy_multi(corner, two_scenarios(), dev(), limit(63.0));
  EXPECT_FALSE(none.success);
  EXPECT_TRUE(none.deployment.empty());
  EXPECT_EQ(none.iterations, 0u);
  EXPECT_EQ(none.scenario_peaks.size(), 2u);  // the passive peaks
}

TEST(MultiScenario, Validation) {
  EXPECT_THROW(greedy_deploy_multi(nullptr, two_scenarios(), dev(), limit(63.0)),
               std::invalid_argument);
  EXPECT_THROW(greedy_deploy_multi(small_spec(), {}, dev(), limit(63.0)),
               std::invalid_argument);
  std::vector<linalg::Vector> bad = {linalg::Vector(7)};
  EXPECT_THROW(greedy_deploy_multi(small_spec(), bad, dev(), limit(63.0)),
               std::invalid_argument);
}

}  // namespace
}  // namespace tfc::core
