/// StackSpec structural validation, the single-die mapping of the paper's
/// package, and virtual-grid semantics.
#include "thermal/stack_spec.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "thermal/material.h"

namespace tfc::thermal {
namespace {

LayerSpec die_layer(const std::string& name, double thickness, double power_w) {
  LayerSpec l;
  l.kind = LayerSpec::Kind::kDie;
  l.name = name;
  l.material = silicon();
  l.thickness = thickness;
  l.power_w = power_w;
  return l;
}

LayerSpec interface_layer(const std::string& name, bool tec_capable) {
  LayerSpec l;
  l.kind = LayerSpec::Kind::kInterface;
  l.name = name;
  l.material = thermal_interface();
  l.thickness = 50e-6;
  l.tec_capable = tec_capable;
  return l;
}

ChipSpec chip_6mm(const std::string& name, double x) {
  ChipSpec c;
  c.name = name;
  c.width = 6e-3;
  c.height = 6e-3;
  c.x = x;
  c.tile_rows = 4;
  c.tile_cols = 4;
  c.layers = {die_layer("die", 0.3e-3, 10.0), interface_layer("tim", true)};
  return c;
}

StackSpec small_spec() {
  StackSpec s;
  s.name = "small";
  s.chips = {chip_6mm("chip0", 0.0)};
  return s;
}

/// One chip, two stacked dies, top interface restricted to two sites.
StackSpec stacked_spec() {
  StackSpec s;
  s.name = "stacked";
  ChipSpec c = chip_6mm("cpu", 0.0);
  LayerSpec top = interface_layer("tim_top", true);
  top.tec_sites = {Tile{1, 1}, Tile{2, 2}};
  c.layers = {die_layer("core", 0.3e-3, 12.0), interface_layer("bond", true),
              die_layer("cache", 0.2e-3, 4.0), top};
  s.chips = {c};
  return s;
}

// --- validation edge cases ---------------------------------------------------

TEST(StackSpecValidate, SmallSpecIsValid) { EXPECT_NO_THROW(small_spec().validate()); }

TEST(StackSpecValidate, NoChipsThrows) {
  StackSpec s;
  s.chips.clear();
  EXPECT_THROW(
      try { s.validate(); } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("at least one chip"), std::string::npos);
        throw;
      },
      std::invalid_argument);
}

TEST(StackSpecValidate, ZeroThicknessThrows) {
  StackSpec s = small_spec();
  s.chips[0].layers[0].thickness = 0.0;
  EXPECT_THROW(
      try { s.validate(); } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("thickness must be > 0"), std::string::npos);
        throw;
      },
      std::invalid_argument);
}

TEST(StackSpecValidate, OverlappingFootprintsThrow) {
  StackSpec s;
  // Both chips centered: 6 mm footprints overlap on the shared spreader.
  s.chips = {chip_6mm("a", 0.0), chip_6mm("b", 1e-3)};
  EXPECT_THROW(
      try { s.validate(); } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("footprints overlap"), std::string::npos);
        throw;
      },
      std::invalid_argument);
}

TEST(StackSpecValidate, TecSiteOutOfRangeThrows) {
  StackSpec s = small_spec();
  s.chips[0].layers[1].tec_sites = {Tile{4, 0}};  // grid is 4x4, rows 0..3
  EXPECT_THROW(
      try { s.validate(); } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("TEC site"), std::string::npos);
        throw;
      },
      std::invalid_argument);
}

TEST(StackSpecValidate, TecSitesOnNonCapableInterfaceThrow) {
  StackSpec s = small_spec();
  s.chips[0].layers[1].tec_capable = false;
  s.chips[0].layers[1].tec_sites = {Tile{0, 0}};
  EXPECT_THROW(s.validate(), std::invalid_argument);
}

TEST(StackSpecValidate, BadLayerAlternationThrows) {
  StackSpec s = small_spec();
  s.chips[0].layers = {die_layer("die", 0.3e-3, 10.0)};  // no closing interface
  EXPECT_THROW(s.validate(), std::invalid_argument);
}

TEST(StackSpecValidate, MismatchedTileColsThrow) {
  StackSpec s;
  ChipSpec b = chip_6mm("b", 8e-3);
  b.tile_cols = 6;
  b.width = 6e-3;
  s.chips = {chip_6mm("a", -8e-3), b};
  EXPECT_THROW(
      try { s.validate(); } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("tile_cols"), std::string::npos);
        throw;
      },
      std::invalid_argument);
}

TEST(StackSpecValidate, ChipOffSpreaderThrows) {
  StackSpec s = small_spec();
  s.chips[0].x = 0.02;  // 6 mm die centered 20 mm out on a 30 mm spreader
  EXPECT_THROW(s.validate(), std::invalid_argument);
}

/// Positive but unphysical values used to pass validation and then broke the
/// model: a 4294967297 m spreader left G numerically indefinite ("passive
/// model not solvable"), and a 1e308 K ambient solved to θ = inf.
TEST(StackSpecValidate, FieldsOutsidePhysicalRangesThrowNamingTheField) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::pair<std::string, std::function<void(StackSpec&)>>> mutants = {
      {"spreader thickness", [](StackSpec& s) { s.spreader_thickness = 4294967297.0; }},
      {"ambient_k", [](StackSpec& s) { s.ambient = 1e308; }},
      {"sink side", [inf](StackSpec& s) { s.sink_side = inf; }},
      {"sink thickness", [](StackSpec& s) { s.sink_thickness = 1e-12; }},
      {"convection_resistance", [](StackSpec& s) { s.convection_resistance = 1e300; }},
      {"c4_resistance",
       [](StackSpec& s) {
         s.model_secondary_path = true;
         s.c4_resistance = 1e9;
       }},
      {"width", [](StackSpec& s) { s.chips[0].width = 1e3; }},
      {": x", [nan](StackSpec& s) { s.chips[0].x = nan; }},
      {"thickness", [](StackSpec& s) { s.chips[0].layers[1].thickness = 2.0; }},
      {"conductivity",
       [](StackSpec& s) { s.chips[0].layers[0].material.thermal_conductivity = 1e9; }},
      {"heat_capacity",
       [](StackSpec& s) { s.spreader_material.volumetric_heat_capacity = 1e-3; }},
      {"power_w", [](StackSpec& s) { s.chips[0].layers[0].power_w = 1e12; }},
  };
  for (const auto& [field, mutate] : mutants) {
    StackSpec s = small_spec();
    mutate(s);
    EXPECT_THROW(
        try { s.validate(); } catch (const std::invalid_argument& e) {
          EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
          throw;
        },
        std::invalid_argument)
        << field;
  }
}

TEST(StackSpecValidate, RangeEndpointsAreAccepted) {
  StackSpec s = small_spec();
  s.ambient = StackSpec::kMaxAmbient;
  s.convection_resistance = StackSpec::kMinResistance;
  s.sink_side = StackSpec::kMaxLength;
  s.chips[0].layers[1].thickness = StackSpec::kMinLength;
  s.chips[0].layers[0].power_w = StackSpec::kMaxDiePower;
  s.chips[0].layers[0].material.thermal_conductivity = StackSpec::kMaxConductivity;
  EXPECT_NO_THROW(s.validate());
}

// --- the paper's package -----------------------------------------------------

TEST(StackSpecPaper, SingleDieRoundTripsGeometry) {
  PackageGeometry g;
  StackSpec s = StackSpec::single_die(g);
  ASSERT_EQ(s.chips.size(), 1u);
  const ChipSpec& chip = s.chips[0];
  ASSERT_EQ(chip.layers.size(), 2u);
  EXPECT_EQ(chip.tile_rows, g.tile_rows);
  EXPECT_EQ(chip.tile_cols, g.tile_cols);
  EXPECT_EQ(chip.width, g.die_width);
  EXPECT_EQ(chip.x, 0.0);
  EXPECT_EQ(chip.layers[0].thickness, g.die_thickness);
  EXPECT_EQ(chip.layers[1].thickness, g.tim_thickness);
  EXPECT_TRUE(chip.layers[1].tec_capable);
  EXPECT_TRUE(chip.layers[1].tec_sites.empty());
  EXPECT_EQ(s.convection_resistance, g.convection_resistance);
  EXPECT_EQ(s.ambient, g.ambient);
  EXPECT_EQ(s.tec_allowed_tiles().count(), g.tile_count());

  g.spreader_side = 1e-3;  // smaller than the die
  EXPECT_THROW(StackSpec::single_die(g), std::invalid_argument);
}

// --- virtual grid ------------------------------------------------------------

TEST(StackSpecGrid, StackedDiesConcatenateRows) {
  StackSpec s = stacked_spec();
  EXPECT_EQ(s.dies().size(), 2u);
  EXPECT_EQ(s.total_tile_rows(), 8u);
  EXPECT_EQ(s.tile_cols(), 4u);
  EXPECT_EQ(s.dies()[0].row_offset, 0u);
  EXPECT_EQ(s.dies()[1].row_offset, 4u);
}

TEST(StackSpecGrid, TecAllowedTilesHonorSiteMasks) {
  StackSpec s = stacked_spec();
  TileMask allowed = s.tec_allowed_tiles();
  // Bottom die: unrestricted capable interface = all 16 tiles; top die:
  // explicit two sites at virtual rows 4+1 and 4+2.
  EXPECT_EQ(allowed.count(), 18u);
  EXPECT_TRUE(allowed.test(0, 0));
  EXPECT_TRUE(allowed.test(5, 1));
  EXPECT_TRUE(allowed.test(6, 2));
  EXPECT_FALSE(allowed.test(4, 0));
}

TEST(StackSpecGrid, TilePowersSpreadUniformly) {
  StackSpec s = stacked_spec();
  linalg::Vector p = s.tile_powers();
  ASSERT_EQ(p.size(), 32u);
  double total = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) total += p[i];
  EXPECT_NEAR(total, 16.0, 1e-12);
  EXPECT_NEAR(p[0], 12.0 / 16.0, 1e-12);   // core die band
  EXPECT_NEAR(p[16], 4.0 / 16.0, 1e-12);   // cache die band
}

TEST(StackSpecGrid, CombinedFloorplanPrefixesUnits) {
  StackSpec s = stacked_spec();
  floorplan::Floorplan plan = s.combined_floorplan();
  EXPECT_EQ(plan.tile_rows(), 8u);
  EXPECT_EQ(plan.tile_cols(), 4u);
  ASSERT_EQ(plan.units().size(), 2u);
  EXPECT_NE(plan.units()[0].name.find("cpu."), std::string::npos);
}

}  // namespace
}  // namespace tfc::thermal
