#include "thermal/package_model.h"

#include <gtest/gtest.h>

#include <memory>

#include "linalg/cholesky.h"
#include "linalg/properties.h"
#include "thermal/steady_state.h"
#include "thermal/validation.h"

namespace tfc::thermal {
namespace {

/// Inputs of one test model: a single-die package and its TEC deployment.
struct TestOptions {
  PackageGeometry geometry;
  TileMask tec_tiles;
  TecThermalLink tec_link;
};

TestOptions small_options() {
  TestOptions o;
  o.geometry.tile_rows = 4;
  o.geometry.tile_cols = 4;
  o.geometry.die_width = 2e-3;
  o.geometry.die_height = 2e-3;
  return o;
}

PackageModel build(const TestOptions& o) {
  return PackageModel::build(
      std::make_shared<const StackSpec>(StackSpec::single_die(o.geometry)), o.tec_tiles,
      o.tec_link);
}

TecThermalLink test_link() { return {0.02, 0.01, 0.05}; }

TEST(PackageModel, NodeCountDefault) {
  PackageModel m = build(TestOptions{});
  // 144 silicon + 144 TIM + 144+8 spreader + 144+8+8 sink = 600.
  EXPECT_EQ(m.node_count(), 600u);
}

TEST(PackageModel, MatrixIsIrreduciblePdStieltjes) {
  // Lemma 1 on a real package network.
  PackageModel m = build(small_options());
  auto g = m.network().conductance_matrix();
  EXPECT_TRUE(g.is_symmetric(1e-15));
  EXPECT_TRUE(linalg::is_stieltjes(g));
  EXPECT_TRUE(linalg::is_irreducible(g));
  EXPECT_TRUE(linalg::is_irreducibly_diagonally_dominant(g));
  EXPECT_TRUE(linalg::is_positive_definite(g.to_dense()));
}

TEST(PackageModel, EnergyConservation) {
  PackageModel m = build(small_options());
  linalg::Vector p(16);
  for (std::size_t i = 0; i < 16; ++i) p[i] = 0.1 + 0.01 * double(i);
  m.set_tile_powers(p);
  auto theta = solve_steady_state(m);
  double q_out = 0.0;
  for (std::size_t i = 0; i < m.node_count(); ++i) {
    const double g = m.network().ambient_conductance(i);
    if (g > 0.0) q_out += g * (theta[i] - m.ambient());
  }
  EXPECT_NEAR(q_out, m.network().total_power(), 1e-9 * m.network().total_power());
}

TEST(PackageModel, ZeroPowerGivesAmbientEverywhere) {
  PackageModel m = build(small_options());
  auto theta = solve_steady_state(m);
  for (std::size_t i = 0; i < theta.size(); ++i) {
    EXPECT_NEAR(theta[i], m.ambient(), 1e-9);
  }
}

TEST(PackageModel, AllTemperaturesAboveAmbientUnderLoad) {
  PackageModel m = build(small_options());
  linalg::Vector p(16, 0.2);
  m.set_tile_powers(p);
  auto theta = solve_steady_state(m);
  for (std::size_t i = 0; i < theta.size(); ++i) {
    EXPECT_GT(theta[i], m.ambient());
  }
}

TEST(PackageModel, SiliconHotterThanSink) {
  PackageModel m = build(small_options());
  linalg::Vector p(16, 0.3);
  m.set_tile_powers(p);
  auto theta = solve_steady_state(m);
  double max_sink = 0.0;
  double min_sil = 1e9;
  for (std::size_t i = 0; i < m.node_count(); ++i) {
    const auto& info = m.network().node(i);
    if (info.kind == NodeKind::kSilicon) min_sil = std::min(min_sil, theta[i]);
    if (info.kind == NodeKind::kSinkCenter) max_sink = std::max(max_sink, theta[i]);
  }
  EXPECT_GT(min_sil, max_sink);
}

TEST(PackageModel, HotTileIsLocalPeak) {
  PackageModel m = build(small_options());
  linalg::Vector p(16, 0.05);
  p[1 * 4 + 2] = 0.8;
  m.set_tile_powers(p);
  auto tt = m.tile_temperatures(solve_steady_state(m));
  EXPECT_EQ(linalg::argmax(tt), std::size_t{1 * 4 + 2});
}

TEST(PackageModel, MorePowerMeansHotterEverywhere) {
  // Monotonicity of the M-matrix inverse: raising one tile's power cannot
  // cool any node.
  PackageModel m = build(small_options());
  linalg::Vector p(16, 0.1);
  m.set_tile_powers(p);
  auto t1 = solve_steady_state(m);
  p[5] += 0.5;
  m.set_tile_powers(p);
  auto t2 = solve_steady_state(m);
  for (std::size_t i = 0; i < t1.size(); ++i) EXPECT_GE(t2[i] + 1e-12, t1[i]);
}

TEST(PackageModel, TilePowerValidation) {
  PackageModel m = build(small_options());
  EXPECT_THROW(m.set_tile_powers(linalg::Vector(5)), std::invalid_argument);
  linalg::Vector neg(16);
  neg[0] = -1.0;
  EXPECT_THROW(m.set_tile_powers(neg), std::invalid_argument);
}

TEST(PackageModel, BadOptionsThrow) {
  EXPECT_THROW(PackageModel::build(nullptr), std::invalid_argument);
  auto o = small_options();
  o.geometry.spreader_side = 1e-3;  // smaller than die
  EXPECT_THROW(build(o), std::invalid_argument);
  o = small_options();
  o.tec_tiles = TileMask(3, 3);  // shape mismatch
  o.tec_tiles.set(0, 0);
  EXPECT_THROW(build(o), std::invalid_argument);
  o = small_options();
  o.tec_tiles = TileMask(4, 4);
  o.tec_tiles.set(0, 0);
  o.tec_link = {};  // invalid link
  EXPECT_THROW(build(o), std::invalid_argument);
}

TEST(PackageModel, TecNodesCreatedAndTimRemoved) {
  auto o = small_options();
  o.tec_tiles = TileMask(4, 4);
  o.tec_tiles.set(1, 1);
  o.tec_tiles.set(2, 3);
  o.tec_link = test_link();
  PackageModel m = build(o);

  EXPECT_TRUE(m.has_tec({1, 1}));
  EXPECT_TRUE(m.has_tec({2, 3}));
  EXPECT_FALSE(m.has_tec({0, 0}));
  EXPECT_EQ(m.tec_tiles().size(), 2u);
  EXPECT_EQ(m.hot_nodes().size(), 2u);
  EXPECT_EQ(m.cold_nodes().size(), 2u);
  EXPECT_THROW(m.tec_cold_node({0, 0}), std::invalid_argument);

  // Node budget: base 4x4 model has 16*2 + (16+8) + (16+8+8) = 88 nodes; two
  // TIM nodes are replaced by two (hot, cold) pairs: 88 - 2 + 4 = 90.
  PackageModel base = build(small_options());
  EXPECT_EQ(m.node_count(), base.node_count() + 2u);

  // Network still Lemma-1 conformant.
  auto g = m.network().conductance_matrix();
  EXPECT_TRUE(linalg::is_stieltjes(g));
  EXPECT_TRUE(linalg::is_irreducible(g));
  EXPECT_TRUE(linalg::is_positive_definite(g.to_dense()));
}

TEST(PackageModel, TecAtZeroCurrentActsAsPassivePath) {
  // With no Peltier/Joule stamping the TEC is just a conductance chain; the
  // package must still solve and stay warmer than ambient.
  auto o = small_options();
  o.tec_tiles = TileMask(4, 4);
  o.tec_tiles.set(2, 2);
  o.tec_link = test_link();
  PackageModel m = build(o);
  linalg::Vector p(16, 0.2);
  m.set_tile_powers(p);
  auto theta = solve_steady_state(m);
  const double cold = theta[m.tec_cold_node({2, 2})];
  const double hot = theta[m.tec_hot_node({2, 2})];
  EXPECT_GT(cold, m.ambient());
  // Passive heat flows silicon → cold → hot → spreader, so cold ≥ hot.
  EXPECT_GE(cold, hot);
}

TEST(PackageModel, RefinedModelsHaveMoreNodes) {
  const auto o = small_options();
  PackageModel coarse = build(o);
  StackSpec spec = StackSpec::single_die(o.geometry);
  spec.chips[0].tile_rows *= 2;
  spec.chips[0].tile_cols *= 2;
  spec.chips[0].layers[0].slabs = 2;
  PackageModel fine = PackageModel::build(std::make_shared<const StackSpec>(spec));
  EXPECT_GT(fine.node_count(), 4 * coarse.node_count() / 2);
}

TEST(PackageModel, RefinedTilePowerSplitsEvenly) {
  linalg::Vector p(16);
  p[0] = 1.0;
  PackageModel m = build_reference_model(StackSpec::single_die(small_options().geometry),
                                         TileMask(), {}, p, {2, 1, 1, 1});
  EXPECT_NEAR(m.network().total_power(), 1.0, 1e-12);
  EXPECT_EQ(m.tile_rows(), 8u);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 2; ++c) {
      EXPECT_DOUBLE_EQ(m.network().power(m.silicon_node({r, c})), 0.25);
    }
  }
}

TEST(PackageModel, NoSpreaderOverhangDegenerateGeometry) {
  auto o = small_options();
  o.geometry.spreader_side = o.geometry.die_width;  // no overhang
  o.geometry.sink_side = 10e-3;
  PackageModel m = build(o);
  linalg::Vector p(16, 0.1);
  m.set_tile_powers(p);
  auto g = m.network().conductance_matrix();
  EXPECT_TRUE(linalg::is_irreducible(g));
  auto theta = solve_steady_state(m);
  EXPECT_GT(m.peak_tile_temperature(theta), m.ambient());
}

TEST(PackageModel, NoSinkOverhangDegenerateGeometry) {
  auto o = small_options();
  o.geometry.sink_side = o.geometry.spreader_side;
  PackageModel m = build(o);
  linalg::Vector p(16, 0.1);
  m.set_tile_powers(p);
  auto theta = solve_steady_state(m);
  EXPECT_GT(m.peak_tile_temperature(theta), m.ambient());
}

TEST(PackageModel, FullyDegenerateStack) {
  auto o = small_options();
  o.geometry.spreader_side = o.geometry.die_width;
  o.geometry.sink_side = o.geometry.die_width;
  PackageModel m = build(o);
  // 16 sil + 16 tim + 16 spreader + 16 sink, no periphery.
  EXPECT_EQ(m.node_count(), 64u);
  linalg::Vector p(16, 0.1);
  m.set_tile_powers(p);
  auto theta = solve_steady_state(m);
  double q_out = 0.0;
  for (std::size_t i = 0; i < m.node_count(); ++i) {
    const double g = m.network().ambient_conductance(i);
    if (g > 0.0) q_out += g * (theta[i] - m.ambient());
  }
  EXPECT_NEAR(q_out, 1.6, 1e-9);
}

TEST(PackageModel, ConvectionLegsSumToTotalConductance) {
  PackageModel m = build(small_options());
  double g_sum = 0.0;
  for (std::size_t i = 0; i < m.node_count(); ++i) {
    g_sum += m.network().ambient_conductance(i);
  }
  EXPECT_NEAR(g_sum, 1.0 / m.spec()->convection_resistance, 1e-9 * g_sum);
}

TEST(PackageModel, SubtileQueriesValidated) {
  // The reference model's fine cells are its tiles: 8x8 at refinement 2.
  PackageModel m =
      build_reference_model(StackSpec::single_die(small_options().geometry), TileMask(),
                            {}, linalg::Vector(16), {2, 1, 1, 1});
  EXPECT_NO_THROW(m.silicon_node({7, 7}));
  EXPECT_THROW(m.silicon_node({8, 0}), std::out_of_range);
  EXPECT_THROW(m.silicon_node({0, 8}), std::out_of_range);
}

}  // namespace
}  // namespace tfc::thermal
