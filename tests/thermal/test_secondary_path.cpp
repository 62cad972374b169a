#include <gtest/gtest.h>

#include <memory>

#include "linalg/cholesky.h"
#include "linalg/properties.h"
#include "thermal/package_model.h"
#include "thermal/steady_state.h"

namespace tfc::thermal {
namespace {

PackageGeometry base_geometry(bool secondary) {
  PackageGeometry g;
  g.tile_rows = 4;
  g.tile_cols = 4;
  g.die_width = 2e-3;
  g.die_height = 2e-3;
  g.model_secondary_path = secondary;
  return g;
}

PackageModel build(const PackageGeometry& g) {
  return PackageModel::build(std::make_shared<const StackSpec>(StackSpec::single_die(g)));
}

linalg::Vector powers() {
  linalg::Vector p(16, 0.15);
  p[5] = 0.6;
  return p;
}

TEST(SecondaryPath, AddsTwoNodes) {
  auto off = build(base_geometry(false));
  auto on = build(base_geometry(true));
  EXPECT_EQ(on.node_count(), off.node_count() + 2u);
}

TEST(SecondaryPath, MatrixStaysIrreduciblePdStieltjes) {
  auto m = build(base_geometry(true));
  auto g = m.network().conductance_matrix();
  EXPECT_TRUE(linalg::is_stieltjes(g));
  EXPECT_TRUE(linalg::is_irreducible(g));
  EXPECT_TRUE(linalg::is_positive_definite(g.to_dense()));
}

TEST(SecondaryPath, CoolsTheDie) {
  auto off = build(base_geometry(false));
  auto on = build(base_geometry(true));
  off.set_tile_powers(powers());
  on.set_tile_powers(powers());
  const double peak_off = off.peak_tile_temperature(solve_steady_state(off));
  const double peak_on = on.peak_tile_temperature(solve_steady_state(on));
  // A parallel escape path can only lower temperatures; with ~40 K/W total
  // against the ~1 K/W primary path the effect is small but strictly
  // positive.
  EXPECT_LT(peak_on, peak_off);
  EXPECT_GT(peak_on, peak_off - 5.0);
}

TEST(SecondaryPath, EnergySplitsAcrossBothPaths) {
  auto m = build(base_geometry(true));
  m.set_tile_powers(powers());
  auto theta = solve_steady_state(m);
  const auto& net = m.network();
  double q_total = 0.0;
  double q_board = 0.0;
  for (std::size_t k = 0; k < net.node_count(); ++k) {
    const double g = net.ambient_conductance(k);
    if (g <= 0.0) continue;
    const double q = g * (theta[k] - m.ambient());
    q_total += q;
    if (net.node(k).kind == NodeKind::kOther) q_board += q;
  }
  EXPECT_NEAR(q_total, net.total_power(), 1e-9 * q_total);
  EXPECT_GT(q_board, 0.0);
  EXPECT_LT(q_board, 0.25 * q_total);  // secondary path is the minor share
}

TEST(SecondaryPath, ValidationOfResistances) {
  auto g = base_geometry(true);
  g.c4_resistance = 0.0;
  EXPECT_THROW(build(g), std::invalid_argument);
  g = base_geometry(true);
  g.board_convection_resistance = -1.0;
  EXPECT_THROW(build(g), std::invalid_argument);
  // Disabled: the same non-physical values are ignored.
  g = base_geometry(false);
  g.c4_resistance = 0.0;
  EXPECT_NO_THROW(build(g));
}

}  // namespace
}  // namespace tfc::thermal
