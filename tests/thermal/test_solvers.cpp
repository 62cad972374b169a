#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "linalg/cg.h"
#include "linalg/cholesky.h"
#include "thermal/package_model.h"
#include "thermal/steady_state.h"
#include "thermal/transient.h"
#include "thermal/validation.h"

namespace tfc::thermal {
namespace {

StackSpec small_spec() {
  PackageGeometry g;
  g.tile_rows = 4;
  g.tile_cols = 4;
  g.die_width = 2e-3;
  g.die_height = 2e-3;
  return StackSpec::single_die(g);
}

PackageModel small_model() {
  return PackageModel::build(std::make_shared<const StackSpec>(small_spec()));
}

linalg::Vector test_powers() {
  linalg::Vector p(16, 0.1);
  p[5] = 0.6;
  p[10] = 0.4;
  return p;
}

TEST(SteadyState, BackendsAgree) {
  // The sparse Cholesky solve against the Jacobi-CG and dense Cholesky
  // oracles.
  PackageModel m = small_model();
  m.set_tile_powers(test_powers());
  const auto& net = m.network();
  const auto g = net.conductance_matrix();
  const auto rhs = net.rhs(m.ambient());
  auto t1 = solve_steady_state(m);
  auto cg = linalg::conjugate_gradient(g, rhs, linalg::jacobi_preconditioner(g));
  ASSERT_TRUE(cg.converged);
  auto dense = linalg::CholeskyFactor::factor(g.to_dense());
  ASSERT_TRUE(dense.has_value());
  EXPECT_TRUE(approx_equal(t1, cg.x, 1e-7));
  EXPECT_TRUE(approx_equal(t1, dense->solve(rhs), 1e-8));
}

TEST(SteadyState, SingularMatrixThrows) {
  // No ambient legs: floating network, G singular.
  ConductanceNetwork net;
  auto a = net.add_node({});
  auto b = net.add_node({});
  net.add_conductance(a, b, 1.0);
  EXPECT_THROW(solve_steady_state(net.conductance_matrix(), net.rhs(300.0)),
               std::runtime_error);
}

TEST(Transient, ConvergesToSteadyState) {
  PackageModel m = small_model();
  m.set_tile_powers(test_powers());
  const auto& net = m.network();
  auto g = net.conductance_matrix();
  auto rhs = net.rhs(m.ambient());
  auto steady = solve_steady_state(m);

  // The sink time constant is ~80 s; integrate many multiples of it.
  TransientSolver ts(g, net.capacitance_vector(), 0.2);
  linalg::Vector theta(net.node_count(), m.ambient());
  for (int step = 0; step < 8000; ++step) theta = ts.step(theta, rhs);
  EXPECT_TRUE(approx_equal(theta, steady, 1e-3));
}

TEST(Transient, MonotoneHeatingFromAmbient) {
  PackageModel m = small_model();
  m.set_tile_powers(test_powers());
  const auto& net = m.network();
  TransientSolver ts(net.conductance_matrix(), net.capacitance_vector(), 1e-4);
  auto rhs = net.rhs(m.ambient());
  linalg::Vector theta(net.node_count(), m.ambient());
  double prev_peak = m.peak_tile_temperature(theta);
  for (int step = 0; step < 50; ++step) {
    theta = ts.step(theta, rhs);
    const double peak = m.peak_tile_temperature(theta);
    EXPECT_GE(peak + 1e-12, prev_peak);
    prev_peak = peak;
  }
}

TEST(Transient, RunWithTimeVaryingPower) {
  PackageModel m = small_model();
  const auto& net = m.network();
  TransientSolver ts(net.conductance_matrix(), net.capacitance_vector(), 1e-3);
  // Power pulse on for the first 10 steps, off afterwards.
  PackageModel pulsed = small_model();
  pulsed.set_tile_powers(test_powers());
  auto rhs_on = pulsed.network().rhs(m.ambient());
  auto rhs_off = net.rhs(m.ambient());
  linalg::Vector theta(net.node_count(), m.ambient());
  linalg::Vector next(net.node_count());
  for (std::size_t s = 0; s < 200; ++s) {
    ts.step_into(theta, s < 10 ? rhs_on : rhs_off, next);
    std::swap(theta, next);
  }
  // After a long off period the package relaxes back toward ambient.
  EXPECT_NEAR(m.peak_tile_temperature(theta), m.ambient(), 0.5);
}

TEST(Transient, StepIntoMatchesStepBitwise) {
  PackageModel m = small_model();
  m.set_tile_powers(test_powers());
  const auto& net = m.network();
  TransientSolver ts(net.conductance_matrix(), net.capacitance_vector(), 1e-3);
  auto rhs = net.rhs(m.ambient());
  linalg::Vector theta(net.node_count(), m.ambient());
  linalg::Vector out(net.node_count());
  for (int step = 0; step < 20; ++step) {
    auto expected = ts.step(theta, rhs);
    ts.step_into(theta, rhs, out);
    ASSERT_EQ(out.size(), expected.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i], expected[i]) << "step " << step << " node " << i;
    }
    theta = expected;
  }
}

TEST(Transient, SharedSymbolicGivesIdenticalResults) {
  PackageModel m = small_model();
  m.set_tile_powers(test_powers());
  const auto& net = m.network();
  auto g = net.conductance_matrix();
  auto c = net.capacitance_vector();
  auto rhs = net.rhs(m.ambient());
  linalg::Vector theta(net.node_count(), m.ambient());

  TransientSolver first(g, c, 1e-3);
  ASSERT_NE(first.symbolic(), nullptr);
  TransientSolver sibling(g, c, 1e-3, first.symbolic());
  EXPECT_EQ(sibling.symbolic().get(), first.symbolic().get());
  auto a = first.step(theta, rhs);
  auto b = sibling.step(theta, rhs);
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
}

TEST(Transient, InvalidInputsThrow) {
  PackageModel m = small_model();
  auto g = m.network().conductance_matrix();
  auto c = m.network().capacitance_vector();
  EXPECT_THROW(TransientSolver(g, c, 0.0), std::invalid_argument);
  EXPECT_THROW(TransientSolver(g, linalg::Vector(3, 1.0), 1e-3), std::invalid_argument);
  linalg::Vector bad_c = c;
  bad_c[0] = 0.0;
  EXPECT_THROW(TransientSolver(g, bad_c, 1e-3), std::invalid_argument);
}

TEST(Validation, CoarseModelTracksReference) {
  // The compact-vs-fine-grid agreement experiment (Section VI): on a small
  // package the coarse tile temperatures must stay within ~1.5 °C of a 3x
  // refined discretization.
  const StackSpec spec = small_spec();
  ReferenceResolution res;
  res.refine = 3;
  res.die_slabs = 3;
  res.spreader_slabs = 2;
  auto report = validate_against_reference(spec, TileMask(), {}, test_powers(), res);
  EXPECT_EQ(report.coarse.size(), 16u);
  EXPECT_GT(report.reference_nodes, report.coarse_nodes);
  // This synthetic 0.6 W point load on a 0.25 mm² tile is harsher than the
  // paper's workloads; the Alpha-condition <1.5 °C claim is exercised by
  // bench_validation. Here we bound the discretization error of the scheme.
  EXPECT_LT(report.max_abs_diff, 2.5);
  EXPECT_LT(report.mean_abs_diff, 1.0);
  EXPECT_LE(report.mean_abs_diff, report.max_abs_diff);
}

TEST(Validation, RefinementConvergence) {
  // 2x and 4x refinements should agree with each other better than 1x vs 4x:
  // plain grid-convergence sanity.
  const StackSpec spec = small_spec();
  linalg::Vector p = test_powers();
  ReferenceResolution r2{2, 2, 1, 2};
  ReferenceResolution r4{4, 3, 1, 3};
  auto rep2 = validate_against_reference(spec, TileMask(), {}, p, r2);
  auto rep4 = validate_against_reference(spec, TileMask(), {}, p, r4);
  // Coarse model identical in both runs; finer reference may move a little.
  EXPECT_TRUE(approx_equal(rep2.coarse, rep4.coarse, 1e-9));
  double ref_gap = 0.0;
  for (std::size_t i = 0; i < rep2.reference.size(); ++i) {
    ref_gap = std::max(ref_gap, std::abs(rep2.reference[i] - rep4.reference[i]));
  }
  EXPECT_LT(ref_gap, rep4.max_abs_diff + 0.5);
}

}  // namespace
}  // namespace tfc::thermal
