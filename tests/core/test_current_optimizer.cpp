#include "core/current_optimizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/chip.h"
#include "core/response.h"
#include "io/design_json.h"
#include "obs/context.h"
#include "obs/metrics.h"
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

/// The plain bisection search_current replays: halve [0, end] on the sign
/// of the probed slope down to kCurrentTol — a positive slope or a failed
/// factorization moves the right end, a negative slope the left end, a zero
/// slope stops. The oracle for the bracket-then-replay search.
CurrentSearch bisect(double end, const CurrentProbe& probe) {
  CurrentSearch res;
  double a = 0.0, b = end;
  while (b - a > kCurrentTol && res.probes < kMaxEvaluations) {
    const double mid = 0.5 * (a + b);
    const auto p = probe(mid);
    ++res.probes;
    if (!p || p->slope > 0.0) {
      b = mid;
    } else if (p->slope < 0.0) {
      a = mid;
    } else {
      a = b = mid;
    }
  }
  res.current = 0.5 * (a + b);
  res.converged = (b - a) <= kCurrentTol;
  return res;
}

/// search_current returns the bisection's current, bit for bit, from no more
/// probes than the bisection takes.
void expect_replays_bisection(double end, const CurrentProbe& probe,
                              const std::string& label) {
  const CurrentSearch oracle = bisect(end, probe);
  const CurrentSearch search = search_current(end, probe);
  EXPECT_EQ(search.current, oracle.current) << label;
  EXPECT_EQ(search.converged, oracle.converged) << label;
  EXPECT_LE(search.probes, oracle.probes) << label;
}

/// A synthetic objective: the max over tiles of θ_k(i), each given with its
/// first two derivatives, and no factorization from `wall` on.
struct SyntheticTile {
  std::function<double(double)> theta, slope, curvature;
};

CurrentProbe synthetic(std::vector<SyntheticTile> tiles,
                       double wall = std::numeric_limits<double>::infinity()) {
  return [tiles = std::move(tiles), wall](double i) -> std::optional<engine::PeakProbe> {
    if (i < 0.0 || i >= wall) return std::nullopt;
    engine::PeakProbe p;
    p.peak = -std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < tiles.size(); ++k) {
      const double t = tiles[k].theta(i);
      if (t > p.peak) {
        p.peak = t;
        p.tile = k;
      }
    }
    p.slope = tiles[p.tile].slope(i);
    p.curvature = tiles[p.tile].curvature(i);
    return p;
  };
}

/// Smooth, with a pole at `pole` like H(i) at λ_m: minimum near i = 6.6.
SyntheticTile smooth_tile(double pole) {
  return {[pole](double i) { return 350.0 - 2.0 * i + 0.15 * i * i + 30.0 / (pole - i); },
          [pole](double i) { return -2.0 + 0.3 * i + 30.0 / ((pole - i) * (pole - i)); },
          [pole](double i) { return 0.3 + 60.0 / ((pole - i) * (pole - i) * (pole - i)); }};
}

SyntheticTile quadratic_tile(double c0, double c1, double c2) {
  return {[=](double i) { return c0 + c1 * i + c2 * i * i; },
          [=](double i) { return c1 + 2.0 * c2 * i; }, [=](double) { return 2.0 * c2; }};
}

TEST(CurrentSearch, ReplaysBisectionOnSmoothMinimum) {
  for (double end : {0.999 * 120.0, 100.0, 57.3, 12.9, 7.0}) {
    expect_replays_bisection(end, synthetic({smooth_tile(120.0)}),
                             "end " + std::to_string(end));
  }
}

TEST(CurrentSearch, ReplaysBisectionAtAKink) {
  // Tile 0 falls, tile 1 rises; the max has its minimum at their crossing
  // (i ≈ 5.83), where the slope jumps from −2.4 to +3.2 K/A.
  const CurrentProbe kink =
      synthetic({quadratic_tile(360.0, -3.0, 0.05), quadratic_tile(330.0, 2.0, 0.1)});
  for (double end : {100.0, 119.88, 33.3, 9.0}) {
    expect_replays_bisection(end, kink, "end " + std::to_string(end));
  }
  // A kink left of a smooth minimum of the rising tile.
  expect_replays_bisection(
      100.0, synthetic({quadratic_tile(356.0, -3.0, 0.05), quadratic_tile(340.0, -1.0, 0.1)}),
      "kink then smooth");
}

TEST(CurrentSearch, ReplaysBisectionWithOptimumAtZero) {
  const CurrentProbe rising = synthetic({quadratic_tile(340.0, 0.5, 0.02)});
  expect_replays_bisection(100.0, rising, "rising");
  EXPECT_EQ(search_current(100.0, rising).probes, 1u);
}

TEST(CurrentSearch, ReplaysBisectionBeforeANonPositiveDefiniteWall) {
  // The factorization fails from i = 9 on, well before the search end.
  expect_replays_bisection(100.0, synthetic({smooth_tile(120.0)}, 9.0), "smooth");
  // Zero curvature at i = 0 (no Newton step) and the minimum at i = 10,
  // the wall at 30: the search must bisect its way off the wall.
  const SyntheticTile flat_start{[](double i) { return 400.0 - i + i * i * i * i / 4000.0; },
                        [](double i) { return -1.0 + i * i * i / 1000.0; },
                        [](double i) { return 3.0 * i * i / 1000.0; }};
  expect_replays_bisection(100.0, synthetic({flat_start}, 30.0), "flat start");
  // No factorization anywhere: every midpoint moves the right end.
  expect_replays_bisection(100.0, synthetic({flat_start}, 0.0), "no factor");
}

TEST(CurrentSearch, ReplaysBisectionThroughAnExactZeroSlope) {
  // The slope 2·(i − z) is exactly zero at z = 100·371/1024, the tenth
  // midpoint of the bisection of [0, 100], which stops there.
  const double z = 100.0 * 371.0 / 1024.0;
  const CurrentProbe parabola = synthetic({quadratic_tile(z * z, -2.0 * z, 1.0)});
  const CurrentSearch oracle = bisect(100.0, parabola);
  ASSERT_EQ(oracle.current, z);
  ASSERT_EQ(oracle.probes, 10u);
  expect_replays_bisection(100.0, parabola, "zero at a midpoint");
}

TEST(CurrentSearch, ReplaysBisectionOnSeededRandomObjectives) {
  // Maxima of one to three convex tiles (quadratics, or a pole like H(i) at
  // λ_m), a third of them behind a non-positive-definite wall.
  std::mt19937_64 rng(20261017);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::size_t probes = 0, bisection_probes = 0;
  for (int n = 0; n < 300; ++n) {
    const double end = 5.0 + 200.0 * u(rng);
    std::vector<SyntheticTile> tiles;
    for (int k = 1 + int(3.0 * u(rng)); k > 0; --k) {
      if (u(rng) < 0.3) {
        tiles.push_back(smooth_tile(end / 0.999 + 50.0 * u(rng)));
      } else {
        tiles.push_back(
            quadratic_tile(340.0 + 20.0 * u(rng), -4.0 + 5.0 * u(rng), 0.01 + 0.3 * u(rng)));
      }
    }
    const double wall = u(rng) < 0.3 ? end * u(rng) : std::numeric_limits<double>::infinity();
    const CurrentProbe probe = synthetic(tiles, wall);
    const CurrentSearch oracle = bisect(end, probe);
    const CurrentSearch search = search_current(end, probe);
    EXPECT_EQ(search.current, oracle.current) << "objective " << n;
    probes += search.probes;
    bisection_probes += oracle.probes;
  }
  EXPECT_LT(2 * probes, bisection_probes);
}

/// On real deployments too: the same current as the bisection, in fewer
/// probes of SolveContext::probe_peak.
void expect_replays_bisection(const engine::SolveContext& context) {
  const auto lambda_m = context.runaway_limit();
  ASSERT_TRUE(lambda_m.has_value());
  const CurrentProbe probe = [&](double i) { return context.probe_peak(i); };
  expect_replays_bisection(kRunawayFraction * *lambda_m, probe, "deployment");
  EXPECT_LT(search_current(kRunawayFraction * *lambda_m, probe).probes, 15u);
}

TEST(CurrentSearch, ReplaysBisectionOnDeployments) {
  expect_replays_bisection(engine::SolveContext(deployed_system()));
  const DesignResult golden = io::design_result_from_json(
      read_file(std::string(TFC_TEST_DATA_DIR) + "/golden_design_alpha.json"));
  const Chip alpha = builtin_chip("alpha");
  expect_replays_bisection(
      engine::SolveContext(alpha.spec, golden.deployment, alpha.tile_powers,
                           tec::TecDeviceParams::chowdhury_superlattice()));
}

TEST(CurrentOptimizer, SpanAndCounterReportProbesAndInferredMidpoints) {
  const engine::SolveContext context(deployed_system());
  const auto lambda_m = context.runaway_limit();
  ASSERT_TRUE(lambda_m.has_value());
  const CurrentSearch search = search_current(
      kRunawayFraction * *lambda_m, [&](double i) { return context.probe_peak(i); });
  auto& inferred = obs::MetricsRegistry::global().counter("current_opt.inferred_midpoints");
  const std::uint64_t inferred0 = inferred.value();
  obs::RequestTrace trace;
  CurrentOptimum opt;
  {
    obs::ScopedRequestContext scope("current-search", &trace);
    opt = optimize_current(context);
  }
  EXPECT_EQ(opt.objective_evaluations, search.probes + 1);
  EXPECT_EQ(trace.total_attr("optimize_current", "probes"), double(search.probes));
  EXPECT_EQ(trace.total_attr("optimize_current", "inferred"), double(search.inferred));
  EXPECT_GT(search.inferred, 0u);
  EXPECT_EQ(inferred.value() - inferred0, search.inferred);
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
    const auto probe = context.probe_peak(i);
    ASSERT_TRUE(probe.has_value()) << "i = " << i;
    best = std::min(best, probe->peak);
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

/// probe_peak's slope is dθ_k*/di of the lowest-index hottest tile, as the
/// ResponseEvaluator oracle computes it from its own factorization.
void expect_slope_matches_oracle(const engine::SolveContext& context) {
  const tec::ElectroThermalSystem& system = context.system();
  const auto lambda_m = context.runaway_limit();
  ASSERT_TRUE(lambda_m.has_value());
  for (double frac : {0.0, 0.02, 0.3, 0.7, 0.95}) {
    const double i = frac * *lambda_m;
    const auto probe = context.probe_peak(i);
    ASSERT_TRUE(probe.has_value()) << "i = " << i;
    const auto oracle = ResponseEvaluator::at(system, i);
    ASSERT_TRUE(oracle.has_value());
    const linalg::Vector tiles = system.model().tile_temperatures(oracle->theta());
    const std::size_t hottest = linalg::argmax(tiles);
    const double expected =
        system.model().tile_temperatures(oracle->theta_derivative())[hottest];
    EXPECT_EQ(probe->tile, hottest) << "i = " << i;
    EXPECT_NEAR(probe->peak, tiles[hottest], 1e-12 * tiles[hottest]) << "i = " << i;
    EXPECT_NEAR(probe->slope, expected, 1e-12 * std::abs(expected)) << "i = " << i;
  }
}

TEST(CurrentOptimizer, ProbeSlopeMatchesThetaDerivative) {
  expect_slope_matches_oracle(engine::SolveContext(deployed_system()));
  const DesignResult golden = io::design_result_from_json(
      read_file(std::string(TFC_TEST_DATA_DIR) + "/golden_design_alpha.json"));
  const Chip alpha = builtin_chip("alpha");
  expect_slope_matches_oracle(
      engine::SolveContext(alpha.spec, golden.deployment, alpha.tile_powers,
                           tec::TecDeviceParams::chowdhury_superlattice()));
}

/// probe_peak's curvature is d²θ_k*/di² of its hottest tile: the central
/// difference of the ResponseEvaluator oracle's dθ/di on that tile.
TEST(CurrentOptimizer, ProbeCurvatureMatchesCentralDifference) {
  const DesignResult golden = io::design_result_from_json(
      read_file(std::string(TFC_TEST_DATA_DIR) + "/golden_design_alpha.json"));
  const Chip alpha = builtin_chip("alpha");
  const engine::SolveContext context(alpha.spec, golden.deployment, alpha.tile_powers,
                                     tec::TecDeviceParams::chowdhury_superlattice());
  const tec::ElectroThermalSystem& system = context.system();
  const auto lambda_m = context.runaway_limit();
  ASSERT_TRUE(lambda_m.has_value());
  const double h = 1e-3;
  for (double frac : {0.0, 0.03, 0.05, 0.3, 0.7}) {
    const double i = std::max(frac * *lambda_m, h);
    const auto probe = context.probe_peak(i);
    ASSERT_TRUE(probe.has_value()) << "i = " << i;
    const auto slope_at = [&](double x) {
      const auto oracle = ResponseEvaluator::at(system, x);
      EXPECT_TRUE(oracle.has_value());
      return system.model().tile_temperatures(oracle->theta_derivative())[probe->tile];
    };
    const double expected = (slope_at(i + h) - slope_at(i - h)) / (2.0 * h);
    EXPECT_GT(probe->curvature, 0.0) << "i = " << i;
    EXPECT_NEAR(probe->curvature, expected, 1e-6 * std::abs(expected)) << "i = " << i;
  }
}

TEST(CurrentOptimizer, ProbePastRunawayLimitIsNullopt) {
  const engine::SolveContext context(deployed_system());
  const auto lambda_m = context.runaway_limit();
  ASSERT_TRUE(lambda_m.has_value());
  EXPECT_FALSE(context.probe_peak(1.001 * *lambda_m).has_value());
  EXPECT_TRUE(context.probe_peak(0.999 * *lambda_m).has_value());
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
  // The probe at i = 0, at least one model step and the final solve; never
  // more than the plain bisection's 21 probes plus the final solve.
  EXPECT_GE(opt.objective_evaluations, 3u);
  EXPECT_LE(opt.objective_evaluations, 22u);
}

}  // namespace
}  // namespace tfc::core
