#include <gtest/gtest.h>

#include "core/current_optimizer.h"
#include "core/multipin.h"

namespace tfc::core {
namespace {

thermal::PackageGeometry small_geom() {
  thermal::PackageGeometry g;
  g.tile_rows = g.tile_cols = 6;
  g.die_width = g.die_height = 3e-3;
  return g;
}

tec::ElectroThermalSystem deployed_system() {
  TileMask dep(6, 6);
  dep.set(2, 2);
  dep.set(2, 3);
  dep.set(3, 2);
  dep.set(4, 4);  // a device away from the main hot spot
  linalg::Vector p(36, 0.10);
  p[2 * 6 + 2] = 0.65;
  p[2 * 6 + 3] = 0.65;
  p[3 * 6 + 2] = 0.55;
  p[4 * 6 + 4] = 0.35;
  return tec::ElectroThermalSystem::assemble(small_geom(), dep, p,
                                             tec::TecDeviceParams::chowdhury_superlattice());
}

TEST(GroupedPins, SingleGroupMatchesSharedOptimum) {
  auto sys = deployed_system();
  auto shared = optimize_current(sys);
  auto grouped = optimize_grouped_pins(sys, {0, 0, 0, 0}, shared.current);
  EXPECT_NEAR(grouped.peak_tile_temperature, shared.peak_tile_temperature, 0.02);
  ASSERT_EQ(grouped.group_currents.size(), 1u);
  EXPECT_NEAR(grouped.group_currents[0], shared.current, 0.2);
}

TEST(GroupedPins, MoreGroupsNeverWorse) {
  auto sys = deployed_system();
  auto shared = optimize_current(sys);
  auto g1 = optimize_grouped_pins(sys, {0, 0, 0, 0}, shared.current);
  auto g2 = optimize_grouped_pins(sys, hotness_groups(sys, 2), shared.current);
  auto mp = optimize_multi_pin(sys, shared.current);
  EXPECT_LE(g2.peak_tile_temperature, g1.peak_tile_temperature + 1e-6);
  EXPECT_LE(mp.peak_tile_temperature, g2.peak_tile_temperature + 1e-6);
}

TEST(GroupedPins, AssignmentValidation) {
  auto sys = deployed_system();
  EXPECT_THROW(optimize_grouped_pins(sys, {0, 0, 0}, 1.0), std::invalid_argument);
  EXPECT_THROW(optimize_grouped_pins(sys, {0, 0, 0, 2}, 1.0), std::invalid_argument);
  EXPECT_THROW(optimize_grouped_pins(sys, {0, 1, 0, 1}, -1.0), std::invalid_argument);
}

TEST(GroupedPins, HotnessGroupsOrderedByTemperature) {
  auto sys = deployed_system();
  auto groups = hotness_groups(sys, 2);
  ASSERT_EQ(groups.size(), 4u);
  // Devices 0-2 sit on the hot cluster; device 3 on the cooler spot must be
  // in the last tier.
  EXPECT_EQ(groups[3], 1u);
  // Exactly two tiers used.
  EXPECT_EQ(*std::max_element(groups.begin(), groups.end()), 1u);
  EXPECT_THROW(hotness_groups(sys, 0), std::invalid_argument);
  EXPECT_THROW(hotness_groups(sys, 9), std::invalid_argument);
}

TEST(GroupedPins, HotTierDrivenHarderThanColdTier) {
  auto sys = deployed_system();
  auto shared = optimize_current(sys);
  auto groups = hotness_groups(sys, 2);
  auto res = optimize_grouped_pins(sys, groups, shared.current);
  ASSERT_EQ(res.group_currents.size(), 2u);
  // The tier holding the hottest devices wants at least as much current.
  EXPECT_GE(res.group_currents[0], res.group_currents[1] - 0.5);
}

}  // namespace
}  // namespace tfc::core
