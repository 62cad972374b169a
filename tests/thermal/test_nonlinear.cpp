#include "thermal/nonlinear.h"

#include <gtest/gtest.h>

#include <memory>

#include "thermal/steady_state.h"

namespace tfc::thermal {
namespace {

StackSpec small_options() {
  PackageGeometry g;
  g.tile_rows = 4;
  g.tile_cols = 4;
  g.die_width = 2e-3;
  g.die_height = 2e-3;
  return StackSpec::single_die(g);
}

linalg::Vector powers() {
  linalg::Vector p(16, 0.12);
  p[5] = 0.7;
  return p;
}

TEST(Nonlinear, ConvergesOnSmallPackage) {
  auto res = solve_steady_state_nonlinear(small_options(), powers());
  EXPECT_TRUE(res.converged);
  EXPECT_GE(res.iterations, 2u);
  EXPECT_GT(res.silicon_conductivity, 0.0);
}

TEST(Nonlinear, HotterThanLinearModel) {
  // Above the reference temperature, k(T) < k_ref, so the hot spot must be
  // hotter than the constant-k prediction.
  auto opts = small_options();
  auto p = powers();
  PackageModel linear = PackageModel::build(std::make_shared<const StackSpec>(opts));
  linear.set_tile_powers(p);
  const double peak_linear = linear.peak_tile_temperature(solve_steady_state(linear));

  auto res = solve_steady_state_nonlinear(opts, p);
  ASSERT_TRUE(res.converged);
  EXPECT_GT(linalg::max_entry(res.tile_temperatures), peak_linear);
  EXPECT_LT(res.silicon_conductivity,
            opts.chips[0].layers[0].material.thermal_conductivity);
}

TEST(Nonlinear, ZeroExponentReducesToLinear) {
  auto opts = small_options();
  auto p = powers();
  NonlinearOptions nl;
  nl.exponent = 0.0;
  auto res = solve_steady_state_nonlinear(opts, p, nl);
  ASSERT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 2u);  // first solve + convergence confirmation
  PackageModel linear = PackageModel::build(std::make_shared<const StackSpec>(opts));
  linear.set_tile_powers(p);
  EXPECT_TRUE(approx_equal(res.theta, solve_steady_state(linear), 1e-9));
  EXPECT_DOUBLE_EQ(res.silicon_conductivity,
                   opts.chips[0].layers[0].material.thermal_conductivity);
}

TEST(Nonlinear, EffectGrowsWithPower) {
  // Nonlinear-vs-linear gap should widen as the die runs hotter.
  auto opts = small_options();
  const auto gap = [&](double scale) {
    linalg::Vector p = powers();
    p *= scale;
    PackageModel linear = PackageModel::build(std::make_shared<const StackSpec>(opts));
    linear.set_tile_powers(p);
    const double lin = linear.peak_tile_temperature(solve_steady_state(linear));
    auto res = solve_steady_state_nonlinear(opts, p);
    return linalg::max_entry(res.tile_temperatures) - lin;
  };
  EXPECT_GT(gap(1.5), gap(0.5));
}

TEST(Nonlinear, BadOptionsThrow) {
  NonlinearOptions nl;
  nl.max_iterations = 0;
  EXPECT_THROW(solve_steady_state_nonlinear(small_options(), powers(), nl),
               std::invalid_argument);
  nl = {};
  nl.tol = 0.0;
  EXPECT_THROW(solve_steady_state_nonlinear(small_options(), powers(), nl),
               std::invalid_argument);
  nl = {};
  nl.reference_temperature = -1.0;
  EXPECT_THROW(solve_steady_state_nonlinear(small_options(), powers(), nl),
               std::invalid_argument);
}

TEST(Nonlinear, IterationCapRespected) {
  NonlinearOptions nl;
  nl.max_iterations = 1;
  auto res = solve_steady_state_nonlinear(small_options(), powers(), nl);
  EXPECT_FALSE(res.converged);  // one solve can never confirm convergence
  EXPECT_EQ(res.iterations, 1u);
}

}  // namespace
}  // namespace tfc::thermal
