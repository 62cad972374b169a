#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/tile.h"
#include "thermal/material.h"
#include "thermal/package.h"
#include "thermal/stack_spec.h"

namespace tfc {
namespace {

TEST(TileMask, DefaultEmpty) {
  TileMask m;
  EXPECT_EQ(m.grid_size(), 0u);
  EXPECT_TRUE(m.empty());
}

TEST(TileMask, SetTestCount) {
  TileMask m(3, 4);
  EXPECT_FALSE(m.test(1, 2));
  m.set(1, 2);
  EXPECT_TRUE(m.test(1, 2));
  EXPECT_EQ(m.count(), 1u);
  m.set(1, 2, false);
  EXPECT_TRUE(m.empty());
}

TEST(TileMask, OutOfRangeThrows) {
  TileMask m(2, 2);
  EXPECT_THROW(m.test(2, 0), std::out_of_range);
  EXPECT_THROW(m.set(0, 2), std::out_of_range);
}

TEST(TileMask, TilesRowMajor) {
  TileMask m(2, 2);
  m.set(1, 0);
  m.set(0, 1);
  auto tiles = m.tiles();
  ASSERT_EQ(tiles.size(), 2u);
  EXPECT_EQ(tiles[0], (Tile{0, 1}));
  EXPECT_EQ(tiles[1], (Tile{1, 0}));
}

TEST(TileMask, UnionAndSubset) {
  TileMask a(2, 2), b(2, 2);
  a.set(0, 0);
  b.set(1, 1);
  TileMask u = a;
  u |= b;
  EXPECT_EQ(u.count(), 2u);
  EXPECT_TRUE(a.subset_of(u));
  EXPECT_TRUE(b.subset_of(u));
  EXPECT_FALSE(u.subset_of(a));
}

TEST(TileMask, ShapeMismatchThrows) {
  TileMask a(2, 2), b(3, 3);
  EXPECT_THROW(a |= b, std::invalid_argument);
  EXPECT_THROW(a.subset_of(b), std::invalid_argument);
}

TEST(TileMask, FullMask) {
  auto m = TileMask::full(2, 3);
  EXPECT_EQ(m.count(), 6u);
}

TEST(Material, PresetsValid) {
  for (const auto& m : {thermal::silicon(), thermal::thermal_interface(),
                        thermal::copper(), thermal::aluminum()}) {
    EXPECT_NO_THROW(m.validate());
    EXPECT_GT(m.thermal_conductivity, 0.0);
  }
  EXPECT_GT(thermal::copper().thermal_conductivity,
            thermal::silicon().thermal_conductivity);
}

TEST(Material, ValidationRejectsNonPhysical) {
  thermal::Material m{"bogus", 0.0, 1.0};
  EXPECT_THROW(m.validate(), std::invalid_argument);
  m = {"bogus", 1.0, -2.0};
  EXPECT_THROW(m.validate(), std::invalid_argument);
}

TEST(PackageGeometry, DefaultsMatchPaperGrid) {
  thermal::PackageGeometry g;
  EXPECT_NO_THROW(thermal::StackSpec::single_die(g));
  EXPECT_EQ(g.tile_rows, 12u);
  EXPECT_EQ(g.tile_cols, 12u);
  EXPECT_NEAR(g.tile_pitch_x(), 0.5e-3, 1e-12);  // 0.5 mm TEC footprint
  EXPECT_NEAR(g.tile_area(), 0.25e-6, 1e-15);
  EXPECT_EQ(g.tile_count(), 144u);
}

TEST(PackageGeometry, KelvinConversions) {
  EXPECT_DOUBLE_EQ(thermal::to_kelvin(0.0), 273.15);
  EXPECT_DOUBLE_EQ(thermal::to_celsius(thermal::to_kelvin(85.0)), 85.0);
}

TEST(PackageGeometry, ValidateCatchesBadValues) {
  // StackSpec::single_die validates the package it builds.
  thermal::PackageGeometry g;
  g.die_thickness = 0.0;
  EXPECT_THROW(thermal::StackSpec::single_die(g), std::invalid_argument);
  g = {};
  g.tile_rows = 0;
  EXPECT_THROW(thermal::StackSpec::single_die(g), std::invalid_argument);
  g = {};
  g.sink_side = g.spreader_side / 2.0;
  EXPECT_THROW(thermal::StackSpec::single_die(g), std::invalid_argument);
  g = {};
  g.convection_resistance = -1.0;
  EXPECT_THROW(thermal::StackSpec::single_die(g), std::invalid_argument);
}

TEST(PackageGeometry, SingleDieRefusesOutOfRangeValues) {
  // Positive but outside the StackSpec ranges: refused by single_die itself,
  // not only later when the package is assembled.
  thermal::PackageGeometry g;
  g.die_thickness = 2.0;  // [m], above StackSpec::kMaxLength
  try {
    thermal::StackSpec::single_die(g);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("thickness"), std::string::npos) << e.what();
  }
  g = {};
  g.ambient = 1e308;  // [K], above StackSpec::kMaxAmbient
  EXPECT_THROW(thermal::StackSpec::single_die(g), std::invalid_argument);
}

TEST(PackageGeometry, Overhangs) {
  thermal::PackageGeometry g;
  EXPECT_NEAR(g.spreader_overhang(), 12e-3, 1e-12);
  EXPECT_NEAR(g.sink_overhang(), 15e-3, 1e-12);
}

}  // namespace
}  // namespace tfc
