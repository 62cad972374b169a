#include "thermal/network.h"

#include <gtest/gtest.h>

#include "linalg/cholesky.h"
#include "linalg/properties.h"

namespace tfc::thermal {
namespace {

TEST(ConductanceNetwork, EmptyNetwork) {
  ConductanceNetwork net;
  EXPECT_EQ(net.node_count(), 0u);
  EXPECT_EQ(net.conductance_matrix().rows(), 0u);
}

TEST(ConductanceNetwork, AddNodeReturnsSequentialIds) {
  ConductanceNetwork net;
  EXPECT_EQ(net.add_node({}), 0u);
  EXPECT_EQ(net.add_node({}), 1u);
  EXPECT_EQ(net.node_count(), 2u);
}

TEST(ConductanceNetwork, TwoNodeAssembly) {
  ConductanceNetwork net;
  auto a = net.add_node({});
  auto b = net.add_node({});
  net.add_conductance(a, b, 2.0);
  net.add_ambient_leg(a, 1.0);
  auto g = net.conductance_matrix();
  // G = [[3, -2], [-2, 2]]
  EXPECT_DOUBLE_EQ(g.at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(g.at(0, 1), -2.0);
  EXPECT_DOUBLE_EQ(g.at(1, 0), -2.0);
  EXPECT_DOUBLE_EQ(g.at(1, 1), 2.0);
}

TEST(ConductanceNetwork, MatrixIsStieltjes) {
  ConductanceNetwork net;
  for (int i = 0; i < 5; ++i) net.add_node({});
  for (std::size_t i = 0; i + 1 < 5; ++i) net.add_conductance(i, i + 1, 1.0 + double(i));
  net.add_ambient_leg(4, 0.5);
  auto g = net.conductance_matrix();
  EXPECT_TRUE(linalg::is_stieltjes(g));
  EXPECT_TRUE(linalg::is_irreducible(g));
  EXPECT_TRUE(linalg::is_positive_definite(g.to_dense()));
}

TEST(ConductanceNetwork, ParallelConductancesSum) {
  ConductanceNetwork net;
  auto a = net.add_node({});
  auto b = net.add_node({});
  net.add_conductance(a, b, 1.0);
  net.add_conductance(a, b, 2.5);
  auto g = net.conductance_matrix();
  EXPECT_DOUBLE_EQ(g.at(0, 1), -3.5);
  EXPECT_DOUBLE_EQ(g.at(0, 0), 3.5);
}

TEST(ConductanceNetwork, InvalidEdgesThrow) {
  ConductanceNetwork net;
  auto a = net.add_node({});
  auto b = net.add_node({});
  EXPECT_THROW(net.add_conductance(a, a, 1.0), std::invalid_argument);
  EXPECT_THROW(net.add_conductance(a, b, 0.0), std::invalid_argument);
  EXPECT_THROW(net.add_conductance(a, b, -1.0), std::invalid_argument);
  EXPECT_THROW(net.add_conductance(a, 7, 1.0), std::invalid_argument);
  EXPECT_THROW(net.add_ambient_leg(a, 0.0), std::invalid_argument);
  EXPECT_THROW(net.add_power(9, 1.0), std::invalid_argument);
}

TEST(ConductanceNetwork, PowerAccumulatesAndOverwrites) {
  ConductanceNetwork net;
  auto a = net.add_node({});
  net.add_power(a, 1.0);
  net.add_power(a, 0.5);
  EXPECT_DOUBLE_EQ(net.power(a), 1.5);
  net.set_power(a, 2.0);
  EXPECT_DOUBLE_EQ(net.power(a), 2.0);
  EXPECT_DOUBLE_EQ(net.total_power(), 2.0);
}

TEST(ConductanceNetwork, RhsIncludesAmbientContribution) {
  ConductanceNetwork net;
  auto a = net.add_node({});
  auto b = net.add_node({});
  net.add_conductance(a, b, 1.0);
  net.add_ambient_leg(b, 2.0);
  net.set_power(a, 3.0);
  auto r = net.rhs(300.0);
  EXPECT_DOUBLE_EQ(r[0], 3.0);
  EXPECT_DOUBLE_EQ(r[1], 600.0);
}

TEST(ConductanceNetwork, AnalyticTwoNodeSolution) {
  // a --1-- b --2-- ambient(300 K), 3 W at a:
  // θ_b = 300 + 3/2 = 301.5; θ_a = θ_b + 3/1 = 304.5.
  ConductanceNetwork net;
  auto a = net.add_node({});
  auto b = net.add_node({});
  net.add_conductance(a, b, 1.0);
  net.add_ambient_leg(b, 2.0);
  net.set_power(a, 3.0);
  auto g = net.conductance_matrix().to_dense();
  auto sol = linalg::CholeskyFactor::factor(g)->solve(net.rhs(300.0));
  EXPECT_NEAR(sol[0], 304.5, 1e-10);
  EXPECT_NEAR(sol[1], 301.5, 1e-10);
}

TEST(ConductanceNetwork, CapacitanceVectorFromNodeInfo) {
  ConductanceNetwork net;
  NodeInfo info;
  info.capacitance = 4.0;
  net.add_node(info);
  info.capacitance = 5.0;
  net.add_node(info);
  auto c = net.capacitance_vector();
  EXPECT_DOUBLE_EQ(c[0], 4.0);
  EXPECT_DOUBLE_EQ(c[1], 5.0);
}

}  // namespace
}  // namespace tfc::thermal
