/// Design paths on a thermal::StackSpec: greedy, full cover and the design
/// request. A hand-written spec of the paper's package must reproduce
/// StackSpec::single_die bit for bit; stacked/multi-chip specs must respect
/// the spec's TEC-capable site masks.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "core/baselines.h"
#include "core/cooling_system.h"
#include "core/greedy_deploy.h"
#include "engine/solve_context.h"
#include "tec/device.h"
#include "thermal/stack_spec.h"

namespace tfc::core {
namespace {

/// Small 6x6 paper-style package so Debug-mode designs stay fast.
thermal::PackageGeometry small_geometry() {
  thermal::PackageGeometry g;
  g.tile_rows = 6;
  g.tile_cols = 6;
  return g;
}

/// Concentrated hotspot map: most power on a 2x2 block, so greedy covers a
/// few tiles instead of the whole grid.
linalg::Vector hotspot_powers(std::size_t rows, std::size_t cols, double total) {
  linalg::Vector p(rows * cols);
  const double background = 0.3 * total / double(rows * cols - 4);
  for (std::size_t i = 0; i < p.size(); ++i) p[i] = background;
  const double hot = 0.7 * total / 4.0;
  const std::size_t r0 = rows / 2 - 1, c0 = cols / 2 - 1;
  p[r0 * cols + c0] = hot;
  p[r0 * cols + c0 + 1] = hot;
  p[(r0 + 1) * cols + c0] = hot;
  p[(r0 + 1) * cols + c0 + 1] = hot;
  return p;
}

/// One chip, two stacked dies on a 4x4 grid, top interface restricted.
std::shared_ptr<const thermal::StackSpec> stacked_spec() {
  auto make_die = [](const std::string& name, double power) {
    thermal::LayerSpec l;
    l.kind = thermal::LayerSpec::Kind::kDie;
    l.name = name;
    l.material = thermal::silicon();
    l.thickness = 0.3e-3;
    l.power_w = power;
    return l;
  };
  auto make_iface = [](const std::string& name) {
    thermal::LayerSpec l;
    l.kind = thermal::LayerSpec::Kind::kInterface;
    l.name = name;
    l.material = thermal::thermal_interface();
    l.thickness = 50e-6;
    l.tec_capable = true;
    return l;
  };
  thermal::StackSpec s;
  s.name = "stacked-test";
  thermal::ChipSpec c;
  c.name = "cpu";
  c.width = 6e-3;
  c.height = 6e-3;
  c.tile_rows = 4;
  c.tile_cols = 4;
  thermal::LayerSpec top = make_iface("tim_top");
  top.tec_sites = {Tile{0, 0}};
  c.layers = {make_die("core", 16.0), make_iface("bond"), make_die("cache", 4.0), top};
  s.chips = {c};
  s.validate();
  return std::make_shared<const thermal::StackSpec>(std::move(s));
}

TEST(SpecGreedy, PaperEquivalentSpecMatchesGeometryBitwise) {
  // The same package written out layer by layer (as a spec file would)
  // instead of derived from the geometry.
  const thermal::PackageGeometry g = small_geometry();
  thermal::LayerSpec die;
  die.kind = thermal::LayerSpec::Kind::kDie;
  die.material = g.die_material;
  die.thickness = g.die_thickness;
  thermal::LayerSpec tim;
  tim.kind = thermal::LayerSpec::Kind::kInterface;
  tim.material = g.tim_material;
  tim.thickness = g.tim_thickness;
  tim.tec_capable = true;
  thermal::ChipSpec chip;
  chip.width = g.die_width;
  chip.height = g.die_height;
  chip.tile_rows = g.tile_rows;
  chip.tile_cols = g.tile_cols;
  chip.layers = {die, tim};
  thermal::StackSpec written;
  written.chips = {chip};
  auto spec = std::make_shared<const thermal::StackSpec>(std::move(written));

  const linalg::Vector powers = hotspot_powers(g.tile_rows, g.tile_cols, 8.0);
  const auto device = tec::TecDeviceParams::chowdhury_superlattice();
  const double theta_max = thermal::to_kelvin(85.0);

  GreedyDeployResult from_geometry =
      greedy_deploy(std::make_shared<const thermal::StackSpec>(
                        thermal::StackSpec::single_die(g)),
                    powers, device, theta_max);
  GreedyDeployResult from_spec = greedy_deploy(spec, powers, device, theta_max);

  EXPECT_EQ(from_spec.success, from_geometry.success);
  EXPECT_EQ(from_spec.deployment.tiles(), from_geometry.deployment.tiles());
  EXPECT_EQ(from_spec.current, from_geometry.current);  // bitwise
}

TEST(SpecGreedy, NullSpecThrows) {
  EXPECT_THROW(greedy_deploy(std::shared_ptr<const thermal::StackSpec>(),
                             linalg::Vector(4), tec::TecDeviceParams::chowdhury_superlattice(),
                             thermal::to_kelvin(85.0)),
               std::invalid_argument);
}

TEST(SpecGreedy, DeploymentStaysWithinAllowedSites) {
  auto spec = stacked_spec();
  // A generous limit: greedy succeeds early.
  GreedyDeployResult res = greedy_deploy(spec, spec->tile_powers(),
                                         tec::TecDeviceParams::chowdhury_superlattice(),
                                         thermal::to_kelvin(200.0));
  EXPECT_TRUE(res.deployment.grid_size() == 0 ||
              res.deployment.subset_of(spec->tec_allowed_tiles()));
}

TEST(SpecGreedy, OverLimitTilesOutsideSitesFail) {
  // Restrict every interface to a single far-corner site while the hotspot
  // sits mid-die: greedy cannot cover the over-limit tiles and must report
  // failure instead of deploying outside the spec's capable sites.
  auto base = stacked_spec();
  thermal::StackSpec s = *base;
  s.chips[0].layers[0].power_w = 60.0;  // far over any achievable limit
  s.chips[0].layers[1].tec_sites = {Tile{0, 0}};
  s.validate();
  auto spec = std::make_shared<const thermal::StackSpec>(std::move(s));
  GreedyDeployResult res = greedy_deploy(spec, spec->tile_powers(),
                                         tec::TecDeviceParams::chowdhury_superlattice(),
                                         thermal::to_kelvin(85.0));
  EXPECT_FALSE(res.success);
  EXPECT_TRUE(res.deployment.grid_size() == 0 ||
              res.deployment.subset_of(spec->tec_allowed_tiles()));
}

TEST(SpecFullCover, CoversExactlyTheAllowedSites) {
  auto spec = stacked_spec();
  BaselineResult res = full_cover(spec, spec->tile_powers(),
                                  tec::TecDeviceParams::chowdhury_superlattice());
  EXPECT_EQ(res.deployment.tiles(), spec->tec_allowed_tiles().tiles());
}

TEST(SpecFullCover, NullSpecThrows) {
  EXPECT_THROW(full_cover(std::shared_ptr<const thermal::StackSpec>(), linalg::Vector(4),
                          tec::TecDeviceParams::chowdhury_superlattice()),
               std::invalid_argument);
}

TEST(SpecDesign, RequestWithSpecUsesItsOwnPowers) {
  DesignRequest req;
  req.chip_name = "stacked-test";
  req.spec = stacked_spec();
  req.run_full_cover = false;
  req.theta_limit_celsius = 200.0;  // feasible without TECs: exercises the path
  DesignResult res = design_cooling_system(req);
  EXPECT_TRUE(res.success);
  EXPECT_EQ(res.chip_name, "stacked-test");
}

TEST(SpecSolve, GenericContextSolvesStackedSpec) {
  auto spec = stacked_spec();
  TileMask deployment(spec->total_tile_rows(), spec->tile_cols());
  deployment.set(1, 1);  // within the unrestricted bottom interface
  engine::SolveContext context(spec, deployment, spec->tile_powers(),
                               tec::TecDeviceParams::chowdhury_superlattice());
  ASSERT_NE(context.spec(), nullptr);
  auto op = context.solve(0.5);
  ASSERT_TRUE(op.has_value());
  EXPECT_GT(op->peak_tile_temperature, spec->ambient);
}

}  // namespace
}  // namespace tfc::core
