#include <gtest/gtest.h>

#include <memory>

#include "core/current_optimizer.h"
#include "linalg/cholesky.h"
#include "linalg/properties.h"
#include "tec/runaway.h"

namespace tfc::tec {
namespace {

thermal::PackageGeometry small_geom() {
  thermal::PackageGeometry g;
  g.tile_rows = g.tile_cols = 4;
  g.die_width = g.die_height = 2e-3;
  return g;
}

TileMask one_tec() {
  TileMask m(4, 4);
  m.set(1, 1);
  return m;
}

linalg::Vector powers() {
  linalg::Vector p(16, 0.08);
  p[5] = 0.5;
  return p;
}

ElectroThermalSystem make(std::size_t stages) {
  return ElectroThermalSystem::assemble(small_geom(), one_tec(), powers(),
                                        TecDeviceParams::chowdhury_superlattice(),
                                        stages);
}

TEST(Cascade, StageCountReflectedInNodeLists) {
  auto s1 = make(1);
  auto s3 = make(3);
  EXPECT_EQ(s1.model().hot_nodes().size(), 1u);
  EXPECT_EQ(s3.model().hot_nodes().size(), 3u);
  EXPECT_EQ(s3.model().cold_nodes().size(), 3u);
  EXPECT_EQ(s3.node_count(), s1.node_count() + 4u);  // two extra pairs
}

TEST(Cascade, ZeroStagesRejected) {
  const auto spec = std::make_shared<const thermal::StackSpec>(
      thermal::StackSpec::single_die(small_geom()));
  const auto link = TecDeviceParams::chowdhury_superlattice().thermal_link();
  EXPECT_THROW(thermal::PackageModel::build(spec, one_tec(), link, /*tec_stages=*/0),
               std::invalid_argument);
}

TEST(Cascade, NetworkStaysLemma1Conformant) {
  auto sys = make(3);
  const auto& g = sys.matrix_g();
  EXPECT_TRUE(linalg::is_stieltjes(g));
  EXPECT_TRUE(linalg::is_irreducible(g));
  EXPECT_TRUE(linalg::is_positive_definite(g.to_dense()));
}

TEST(Cascade, EnergyBalanceHolds) {
  auto sys = make(2);
  const double i = 4.0;
  auto op = sys.solve(i);
  ASSERT_TRUE(op.has_value());
  double q_out = 0.0;
  for (std::size_t k = 0; k < sys.node_count(); ++k) {
    const double g = sys.model().network().ambient_conductance(k);
    if (g > 0.0) q_out += g * (op->theta[k] - sys.model().ambient());
  }
  EXPECT_NEAR(q_out, linalg::sum(sys.model().tile_powers()) + op->tec_input_power,
              1e-6 * q_out);
  // Two stages in series draw twice the Joule power of one at equal current.
  auto op1 = make(1).solve(i);
  ASSERT_TRUE(op1.has_value());
  EXPECT_GT(op->tec_input_power, 1.6 * op1->tec_input_power);
}

TEST(Cascade, EndpointsSpanTheStack) {
  auto sys = make(3);
  const Tile t{1, 1};
  const std::size_t cold = sys.model().tec_cold_node(t);
  const std::size_t hot = sys.model().tec_hot_node(t);
  // Endpoints are stage 0's cold node and stage 2's hot node.
  EXPECT_EQ(cold, sys.model().cold_nodes().front());
  EXPECT_EQ(hot, sys.model().hot_nodes().back());
  // Under drive every stage pumps: the summed per-stage plate inversions of
  // the cascade exceed the single stage's inversion. (The *endpoint-to-
  // endpoint* ΔT is smaller — even negative — because the chip's heat flows
  // through the stack and drops temperature across each inter-stage contact;
  // that loss is exactly why cascades lose at small ΔT, see the test below.)
  auto op3 = sys.solve(3.0);
  auto s1 = make(1);
  auto op1 = s1.solve(3.0);
  ASSERT_TRUE(op3 && op1);
  double summed_inversion = 0.0;
  for (std::size_t s = 0; s < 3; ++s) {
    summed_inversion += op3->theta[sys.model().hot_nodes()[s]] -
                        op3->theta[sys.model().cold_nodes()[s]];
  }
  const double dt1 = op1->theta[s1.model().tec_hot_node(t)] -
                     op1->theta[s1.model().tec_cold_node(t)];
  EXPECT_GT(summed_inversion, dt1);
  // And the endpoint drop is indeed below the summed inversions (interfaces
  // eat the gains).
  EXPECT_LT(op3->theta[hot] - op3->theta[cold], summed_inversion);
}

TEST(Cascade, RunawayLimitFiniteAndLower) {
  auto lm1 = runaway_limit(make(1));
  auto lm2 = runaway_limit(make(2));
  ASSERT_TRUE(lm1 && lm2);
  // More coupled stages ⇒ runaway at or below the single-stage limit.
  EXPECT_LE(*lm2, *lm1 * (1.0 + 1e-9));
}

TEST(Cascade, SingleStageOptimumBeatsCascadeAtSmallDeltaT) {
  // On-chip hot-spot cooling needs small ΔT; the cascade's extra Joule heat
  // and interface resistance make it worse here — the honest engineering
  // answer, matching why the paper's thin-film devices are single-stage.
  auto o1 = core::optimize_current(make(1));
  auto o2 = core::optimize_current(make(2));
  EXPECT_LT(o1.peak_tile_temperature, o2.peak_tile_temperature + 1e-9);
}

}  // namespace
}  // namespace tfc::tec
