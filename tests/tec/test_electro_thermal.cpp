#include "tec/electro_thermal.h"

#include <gtest/gtest.h>

#include <memory>

#include "linalg/cholesky.h"
#include "linalg/properties.h"

namespace tfc::tec {
namespace {

thermal::PackageGeometry small_geom() {
  thermal::PackageGeometry g;
  g.tile_rows = 4;
  g.tile_cols = 4;
  g.die_width = 2e-3;
  g.die_height = 2e-3;
  return g;
}

linalg::Vector powers(double hot = 0.6) {
  linalg::Vector p(16, 0.08);
  p[5] = hot;
  return p;
}

TileMask center_tec() {
  TileMask m(4, 4);
  m.set(1, 1);
  return m;
}

ElectroThermalSystem make_system() {
  return ElectroThermalSystem::assemble(small_geom(), center_tec(), powers(),
                                        TecDeviceParams::chowdhury_superlattice());
}

TEST(ElectroThermal, RejectsModelWithoutTecsUnlessAllowed) {
  auto model = thermal::PackageModel::build(std::make_shared<const thermal::StackSpec>(
      thermal::StackSpec::single_die(small_geom())));
  EXPECT_THROW(
      ElectroThermalSystem(model, TecDeviceParams::chowdhury_superlattice()),
      std::invalid_argument);
  EXPECT_NO_THROW(ElectroThermalSystem(model, TecDeviceParams::chowdhury_superlattice(),
                                       /*allow_no_tec=*/true));
}

TEST(ElectroThermal, DMatrixStructure) {
  auto sys = make_system();
  const auto& d = sys.d_diagonal();
  const auto& hot = sys.model().hot_nodes();
  const auto& cold = sys.model().cold_nodes();
  ASSERT_EQ(hot.size(), 1u);
  ASSERT_EQ(cold.size(), 1u);
  EXPECT_DOUBLE_EQ(d[hot[0]], sys.device().seebeck);
  EXPECT_DOUBLE_EQ(d[cold[0]], -sys.device().seebeck);
  std::size_t nonzeros = 0;
  for (std::size_t k = 0; k < d.size(); ++k) {
    if (d[k] != 0.0) ++nonzeros;
  }
  EXPECT_EQ(nonzeros, 2u);
}

TEST(ElectroThermal, SystemMatrixAtZeroCurrentIsG) {
  auto sys = make_system();
  EXPECT_DOUBLE_EQ(sys.system_matrix(0.0).to_dense().max_abs_diff(
                       sys.matrix_g().to_dense()),
                   0.0);
}

TEST(ElectroThermal, SystemMatrixSubtractsScaledD) {
  auto sys = make_system();
  const double i = 3.0;
  auto lhs = sys.system_matrix(i).to_dense();
  auto rhs = sys.matrix_g().to_dense();
  rhs -= linalg::DenseMatrix::diagonal(sys.d_diagonal()) * i;
  EXPECT_LT(lhs.max_abs_diff(rhs), 1e-14);
}

TEST(ElectroThermal, PowerVectorCarriesJouleHalves) {
  // p(i) − p(0) = rhs(i) − rhs(0): the ambient terms cancel.
  auto sys = make_system();
  const double i = 4.0;
  auto p0 = sys.rhs(0.0);
  auto p = sys.rhs(i);
  const double joule = 0.5 * sys.device().resistance * i * i;
  const auto hot = sys.model().hot_nodes()[0];
  const auto cold = sys.model().cold_nodes()[0];
  EXPECT_NEAR(p[hot] - p0[hot], joule, 1e-15);
  EXPECT_NEAR(p[cold] - p0[cold], joule, 1e-15);
  // Total: tile power + full r·i².
  EXPECT_NEAR(linalg::sum(p), linalg::sum(p0) + sys.device().resistance * i * i, 1e-12);
}

TEST(ElectroThermal, TilePowerRhsMatchesInstalledRhs) {
  // rhs_into with the installed map reproduces rhs(i); another map moves
  // only the silicon nodes, by exactly the power difference.
  auto sys = make_system();
  const double i = 3.0;
  const auto expected = sys.rhs(i);
  linalg::Vector out;
  sys.rhs_into(i, powers(), out);
  EXPECT_TRUE(approx_equal(out, expected, 1e-12));

  sys.rhs_into(i, powers(0.9), out);
  const std::size_t hot_tile = sys.model().silicon_node({1, 1});
  EXPECT_NEAR(out[hot_tile] - expected[hot_tile], 0.3, 1e-12);
  EXPECT_NEAR(linalg::sum(out) - linalg::sum(expected), 0.3, 1e-12);

  EXPECT_THROW(sys.rhs_into(i, linalg::Vector(3), out), std::invalid_argument);
}

TEST(ElectroThermal, NegativeCurrentRejected) {
  auto sys = make_system();
  EXPECT_FALSE(sys.solve(-1.0).has_value());
}

TEST(ElectroThermal, ModerateCurrentCools) {
  auto sys = make_system();
  auto op0 = sys.solve(0.0);
  auto op = sys.solve(4.0);
  ASSERT_TRUE(op0 && op);
  EXPECT_LT(op->peak_tile_temperature, op0->peak_tile_temperature);
  EXPECT_GT(op->tec_input_power, 0.0);
}

TEST(ElectroThermal, ColdSideBelowHotSideUnderDrive) {
  auto sys = make_system();
  auto op = sys.solve(5.0);
  ASSERT_TRUE(op.has_value());
  const double tc = op->theta[sys.model().tec_cold_node({1, 1})];
  const double th = sys.model().network().node_count() ? op->theta[sys.model().tec_hot_node({1, 1})] : 0.0;
  EXPECT_LT(tc, th);  // the Peltier pump inverts the passive gradient
}

TEST(ElectroThermal, EnergyBalanceIncludesTecPower) {
  // Heat rejected to ambient == silicon power + electrical TEC power.
  auto sys = make_system();
  const double i = 5.0;
  auto op = sys.solve(i);
  ASSERT_TRUE(op.has_value());
  const auto& net = sys.model().network();
  double q_out = 0.0;
  for (std::size_t k = 0; k < net.node_count(); ++k) {
    const double g = net.ambient_conductance(k);
    if (g > 0.0) q_out += g * (op->theta[k] - sys.model().ambient());
  }
  const double p_silicon = linalg::sum(sys.model().tile_powers());
  EXPECT_NEAR(q_out, p_silicon + op->tec_input_power, 1e-6 * q_out);
}

TEST(ElectroThermal, OperatingPointFieldsConsistent) {
  auto sys = make_system();
  auto op = sys.solve(3.0);
  ASSERT_TRUE(op.has_value());
  EXPECT_EQ(op->current, 3.0);
  EXPECT_EQ(op->tile_temperatures.size(), 16u);
  EXPECT_DOUBLE_EQ(op->peak_tile_temperature, linalg::max_entry(op->tile_temperatures));
  EXPECT_NEAR(op->tec_input_power, sys.tec_input_power(3.0, op->theta), 1e-12);
}

TEST(ElectroThermal, SparseSolveMatchesDenseCholesky) {
  // The sparse solve against a dense Cholesky oracle of G − i·D.
  auto sys = make_system();
  auto a = sys.solve(4.0);
  auto dense = linalg::CholeskyFactor::factor(sys.system_matrix(4.0).to_dense());
  ASSERT_TRUE(a && dense);
  EXPECT_TRUE(approx_equal(a->theta, dense->solve(sys.rhs(4.0)), 1e-7));
}

TEST(ElectroThermal, AssembleWithEmptyDeploymentGivesPassiveSystem) {
  auto sys = ElectroThermalSystem::assemble(small_geom(), TileMask(), powers(),
                                            TecDeviceParams::chowdhury_superlattice());
  EXPECT_EQ(sys.device_count(), 0u);
  auto op = sys.solve(0.0);
  ASSERT_TRUE(op.has_value());
  EXPECT_GT(op->peak_tile_temperature, sys.model().ambient());
  EXPECT_DOUBLE_EQ(op->tec_input_power, 0.0);
  // Current has no effect without devices (D = 0, no Joule sources).
  auto op2 = sys.solve(10.0);
  ASSERT_TRUE(op2.has_value());
  EXPECT_TRUE(approx_equal(op->theta, op2->theta, 1e-9));
}

TEST(ElectroThermal, TecInputPowerValidatesThetaSize) {
  auto sys = make_system();
  EXPECT_THROW(sys.tec_input_power(1.0, linalg::Vector(3)), std::invalid_argument);
}

TEST(ElectroThermal, GMatrixRemainsStieltjesWithTecs) {
  auto sys = make_system();
  EXPECT_TRUE(linalg::is_stieltjes(sys.matrix_g()));
  EXPECT_TRUE(linalg::is_irreducible(sys.matrix_g()));
}

}  // namespace
}  // namespace tfc::tec
