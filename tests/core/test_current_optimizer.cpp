#include "core/current_optimizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "core/chip.h"
#include "io/design_json.h"
#include "tec/runaway.h"

namespace tfc::core {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

thermal::PackageGeometry small_geom() {
  thermal::PackageGeometry g;
  g.tile_rows = g.tile_cols = 6;
  g.die_width = g.die_height = 3e-3;
  return g;
}

linalg::Vector hot_map() {
  linalg::Vector p(36, 0.10);
  p[2 * 6 + 2] = 0.65;
  p[2 * 6 + 3] = 0.65;
  p[3 * 6 + 2] = 0.55;
  return p;
}

tec::ElectroThermalSystem deployed_system() {
  TileMask dep(6, 6);
  dep.set(2, 2);
  dep.set(2, 3);
  dep.set(3, 2);
  return tec::ElectroThermalSystem::assemble(small_geom(), dep, hot_map(),
                                             tec::TecDeviceParams::chowdhury_superlattice());
}

TEST(CurrentOptimizer, ImprovesOverZeroCurrent) {
  auto sys = deployed_system();
  auto opt = optimize_current(sys);
  EXPECT_TRUE(opt.converged);
  const double peak0 = sys.solve(0.0)->peak_tile_temperature;
  EXPECT_LT(opt.peak_tile_temperature, peak0 - 1.0);  // > 1 K of cooling
  EXPECT_GT(opt.current, 0.0);
  ASSERT_TRUE(opt.lambda_m.has_value());
  EXPECT_LT(opt.current, *opt.lambda_m);
}

/// The optimum's peak is no worse than the best of a 400-point grid on
/// [0, kRunawayFraction·λ_m] (plus 1e-9 K) — an oracle independent of the
/// section search.
void expect_beats_grid(const engine::SolveContext& context) {
  const CurrentOptimum opt = optimize_current(context);
  ASSERT_TRUE(opt.lambda_m.has_value());
  const std::size_t points = 400;
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t s = 0; s < points; ++s) {
    const double i = kRunawayFraction * *opt.lambda_m * double(s) / double(points - 1);
    const auto peak = context.probe_peak(i);
    ASSERT_TRUE(peak.has_value()) << "i = " << i;
    best = std::min(best, *peak);
  }
  EXPECT_LE(opt.peak_tile_temperature, best + 1e-9);
}

TEST(CurrentOptimizer, OptimumBeatsGridOracle) {
  expect_beats_grid(engine::SolveContext(deployed_system()));
}

TEST(CurrentOptimizer, OptimumBeatsGridOracleOnAlphaGolden) {
  const DesignResult golden = io::design_result_from_json(
      read_file(std::string(TFC_TEST_DATA_DIR) + "/golden_design_alpha.json"));
  const Chip alpha = builtin_chip("alpha");
  expect_beats_grid(engine::SolveContext(alpha.spec, golden.deployment, alpha.tile_powers,
                                         tec::TecDeviceParams::chowdhury_superlattice()));
}

TEST(CurrentOptimizer, OptimumIsLocalMinimum) {
  auto sys = deployed_system();
  auto opt = optimize_current(sys);
  const double d = 0.25;
  const double left = sys.solve(std::max(0.0, opt.current - d))->peak_tile_temperature;
  const double right = sys.solve(opt.current + d)->peak_tile_temperature;
  EXPECT_LE(opt.peak_tile_temperature, left + 1e-6);
  EXPECT_LE(opt.peak_tile_temperature, right + 1e-6);
}

TEST(CurrentOptimizer, ObjectiveLooksConvexAlongGrid) {
  // Sampled second differences of max-tile temperature stay nonnegative —
  // the Theorem-3 convexity the optimizer relies on.
  auto sys = deployed_system();
  auto lm = tec::runaway_limit(sys);
  ASSERT_TRUE(lm.has_value());
  const int n = 12;
  std::vector<double> f;
  for (int s = 0; s <= n; ++s) {
    const double i = 0.9 * *lm * double(s) / double(n);
    auto op = sys.solve(i);
    ASSERT_TRUE(op.has_value());
    f.push_back(op->peak_tile_temperature);
  }
  for (int s = 1; s + 1 <= n; ++s) {
    EXPECT_GE(f[s - 1] + f[s + 1] - 2.0 * f[s], -1e-6) << "at sample " << s;
  }
}

TEST(CurrentOptimizer, NoTecSystemTrivial) {
  auto sys = tec::ElectroThermalSystem::assemble(small_geom(), TileMask(), hot_map(),
                                                 tec::TecDeviceParams::chowdhury_superlattice());
  auto opt = optimize_current(sys);
  EXPECT_TRUE(opt.converged);
  EXPECT_EQ(opt.current, 0.0);
  EXPECT_EQ(opt.tec_input_power, 0.0);
  EXPECT_FALSE(opt.lambda_m.has_value());
}

TEST(CurrentOptimizer, ReportsOperatingPoint) {
  auto sys = deployed_system();
  auto opt = optimize_current(sys);
  EXPECT_EQ(opt.operating_point.current, opt.current);
  EXPECT_DOUBLE_EQ(opt.operating_point.peak_tile_temperature, opt.peak_tile_temperature);
  EXPECT_GT(opt.tec_input_power, 0.0);
  EXPECT_GT(opt.objective_evaluations, 10u);
}

}  // namespace
}  // namespace tfc::core
