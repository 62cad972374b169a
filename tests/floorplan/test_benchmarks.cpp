#include <gtest/gtest.h>

#include "floorplan/alpha21364.h"
#include "floorplan/random_chip.h"

namespace tfc::floorplan {
namespace {

TEST(Alpha21364, ValidatesAndCoversGrid) {
  auto plan = alpha21364();
  EXPECT_NO_THROW(plan.validate());
  EXPECT_EQ(plan.tile_rows(), 12u);
  EXPECT_EQ(plan.tile_cols(), 12u);
}

TEST(Alpha21364, PublishedTotalPower) {
  // Section VI.A: "The total worst case power consumption of the chip is
  // 20.6 W."
  EXPECT_NEAR(alpha21364().total_power(), 20.6, 0.05);
}

TEST(Alpha21364, PublishedHotClusterShares) {
  // "…consumes 28.1% of the total power while occupying only 10.4% of the
  // total area."
  auto plan = alpha21364();
  EXPECT_NEAR(plan.power_fraction(alpha21364_hot_units()), 0.281, 0.01);
  EXPECT_NEAR(plan.area_fraction(alpha21364_hot_units()), 0.104, 0.005);
}

TEST(Alpha21364, PublishedPowerDensities) {
  // IntReg at 282.4 W/cm², L2 at 25.0 W/cm² (tile = 0.0025 cm² = 0.25e-6 m²).
  auto plan = alpha21364();
  const double tile_area = 0.25e-6;
  const auto density = [&](const char* name) {
    for (std::size_t u = 0; u < plan.units().size(); ++u) {
      if (plan.units()[u].name == name) {
        return plan.unit_power_density(u, tile_area) * 1e-4;  // W/m² → W/cm²
      }
    }
    ADD_FAILURE() << "unit not found: " << name;
    return 0.0;
  };
  EXPECT_NEAR(density("IntReg"), 282.4, 0.1);
  EXPECT_NEAR(density("L2"), 25.0, 0.1);
  // Power dissipation "highly uneven": order-of-magnitude spread.
  EXPECT_GT(density("IntReg") / density("L2"), 10.0);
}

TEST(Alpha21364, HotUnitsExistAndAreHot) {
  auto plan = alpha21364();
  const double tile_area = 0.25e-6;
  for (const auto& name : alpha21364_hot_units()) {
    const auto* u = plan.find(name);
    ASSERT_NE(u, nullptr) << name;
  }
  // Every hot unit is denser than L2.
  for (std::size_t u = 0; u < plan.units().size(); ++u) {
    const auto& name = plan.units()[u].name;
    if (std::find(alpha21364_hot_units().begin(), alpha21364_hot_units().end(), name) !=
        alpha21364_hot_units().end()) {
      EXPECT_GT(plan.unit_power_density(u, tile_area),
                25.0 * 1e4 * 2.0);  // > 2× L2 density
    }
  }
}

TEST(HypotheticalChips, NamesFormat) {
  EXPECT_EQ(hypothetical_chip_name(1), "HC01");
  EXPECT_EQ(hypothetical_chip_name(10), "HC10");
  EXPECT_THROW(hypothetical_chip_name(0), std::invalid_argument);
  EXPECT_THROW(hypothetical_chip_name(100), std::invalid_argument);
}

TEST(HypotheticalChips, DeterministicInIndex) {
  auto a = hypothetical_chip(3);
  auto b = hypothetical_chip(3);
  EXPECT_EQ(a.units().size(), b.units().size());
  EXPECT_DOUBLE_EQ(a.total_power(), b.total_power());
  auto pa = a.tile_powers();
  auto pb = b.tile_powers();
  EXPECT_TRUE(linalg::approx_equal(pa, pb, 0.0));
}

TEST(HypotheticalChips, DifferentIndicesDiffer) {
  auto a = hypothetical_chip(1);
  auto b = hypothetical_chip(2);
  EXPECT_NE(a.total_power(), b.total_power());
}

TEST(HypotheticalChips, BadArgumentsThrow) {
  EXPECT_THROW(hypothetical_chip(0), std::invalid_argument);  // indices are 1-based
}

// Section VI.B properties, for all ten benchmark instances.
class HcSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HcSweep, ValidatesAndMatchesSectionVIB) {
  auto plan = hypothetical_chip(GetParam());
  EXPECT_NO_THROW(plan.validate());
  EXPECT_EQ(plan.tile_count(), 144u);

  // "total power consumption of the chip ranges from 15 W to 25 W".
  EXPECT_GE(plan.total_power(), 15.0);
  EXPECT_LE(plan.total_power(), 25.0);

  // "each containing between 5 and 15 tiles".
  for (const auto& u : plan.units()) {
    EXPECT_GE(u.tile_count(), 5u) << u.name;
    EXPECT_LE(u.tile_count(), 15u) << u.name;
  }

  // Two hot units consuming ~30 % of power on ~10 % of area.
  ASSERT_NE(plan.find("HotA"), nullptr);
  ASSERT_NE(plan.find("HotB"), nullptr);
  const double pf = plan.power_fraction({"HotA", "HotB"});
  const double af = plan.area_fraction({"HotA", "HotB"});
  EXPECT_GE(pf, 0.28);
  EXPECT_LE(pf, 0.40);
  EXPECT_GE(af, 0.05);
  EXPECT_LE(af, 0.14);
  // Genuinely hot: pair density well above background.
  EXPECT_GT(pf / af, 2.0);
}

INSTANTIATE_TEST_SUITE_P(AllTen, HcSweep, ::testing::Range<std::size_t>(1, 11));

}  // namespace
}  // namespace tfc::floorplan
