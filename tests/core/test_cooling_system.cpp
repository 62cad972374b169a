#include "core/cooling_system.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>

#include "core/chip.h"

namespace tfc::core {
namespace {

DesignRequest small_request() {
  DesignRequest req;
  req.chip_name = "mini";
  thermal::PackageGeometry g;
  g.tile_rows = g.tile_cols = 6;
  g.die_width = g.die_height = 3e-3;
  req.spec =
      std::make_shared<const thermal::StackSpec>(thermal::StackSpec::single_die(g));
  req.tile_powers = linalg::Vector(36, 0.10);
  req.tile_powers[2 * 6 + 2] = 0.65;
  req.tile_powers[2 * 6 + 3] = 0.65;
  req.tile_powers[3 * 6 + 2] = 0.55;
  req.theta_limit_celsius = 66.0;
  return req;
}

TEST(CoolingSystem, EndToEndDesignSucceeds) {
  auto res = design_cooling_system(small_request());
  EXPECT_TRUE(res.success);
  EXPECT_EQ(res.chip_name, "mini");
  EXPECT_GE(res.tec_count, 3u);
  EXPECT_GT(res.current, 0.0);
  EXPECT_GT(res.tec_power, 0.0);
  EXPECT_GT(res.peak_no_tec_celsius, res.theta_limit_celsius);
  EXPECT_LE(res.peak_greedy_celsius, res.theta_limit_celsius);
  EXPECT_GT(res.runtime_ms, 0.0);
  EXPECT_GE(res.greedy_iterations, 1u);
  ASSERT_TRUE(res.lambda_m.has_value());
}

/// One θ-limit check for every front end: finite and in (0, 500] °C, run by
/// design_cooling_system and design_with_fallback before any work.
TEST(CoolingSystem, ThetaLimitMustBeFiniteAndInRange) {
  for (double limit : {std::nan(""), 0.0, -1.0, 500.5, HUGE_VAL}) {
    DesignRequest req = small_request();
    req.theta_limit_celsius = limit;
    EXPECT_THROW(DesignRequest::check_theta_limit(limit), std::invalid_argument) << limit;
    EXPECT_THROW(design_cooling_system(req), std::invalid_argument) << limit;
  }
  EXPECT_NO_THROW(DesignRequest::check_theta_limit(kMaxThetaLimitCelsius));
  EXPECT_THROW(design_with_fallback(builtin_chip("alpha"), std::nan(""), false),
               std::invalid_argument);
}

/// The sweep request's bounds, checked before any solve.
TEST(CoolingSystem, SweepRequestBounds) {
  SweepRequest ok;
  EXPECT_NO_THROW(ok.validate());
  ok.points = 10000;
  EXPECT_NO_THROW(ok.validate());
  for (std::size_t points : {std::size_t(0), std::size_t(10001)}) {
    SweepRequest bad;
    bad.points = points;
    EXPECT_THROW(bad.validate(), std::invalid_argument) << points;
  }
  for (double fraction : {0.0, 1.0, -0.5, std::nan("")}) {
    SweepRequest bad;
    bad.max_fraction = fraction;
    EXPECT_THROW(bad.validate(), std::invalid_argument) << fraction;
  }
}

TEST(CoolingSystem, FullCoverComparisonFields) {
  auto res = design_cooling_system(small_request());
  EXPECT_GT(res.full_cover_current, 0.0);
  EXPECT_GT(res.full_cover_power, 0.0);
  EXPECT_NEAR(res.swing_loss_celsius,
              res.full_cover_min_peak_celsius - res.peak_greedy_celsius, 1e-12);
}

TEST(CoolingSystem, FullCoverCanBeSkipped) {
  auto req = small_request();
  req.run_full_cover = false;
  auto res = design_cooling_system(req);
  EXPECT_EQ(res.full_cover_current, 0.0);
  EXPECT_EQ(res.swing_loss_celsius, 0.0);
}

TEST(CoolingSystem, ConvexityCertificateOnRequest) {
  auto req = small_request();
  req.run_convexity_certificate = true;
  auto res = design_cooling_system(req);
  ASSERT_TRUE(res.convexity.has_value());
  EXPECT_TRUE(res.convexity->certified);
}

TEST(CoolingSystem, InfeasibleLimitReported) {
  auto req = small_request();
  req.theta_limit_celsius = 46.0;
  auto res = design_cooling_system(req);
  EXPECT_FALSE(res.success);
  EXPECT_GT(res.peak_greedy_celsius, req.theta_limit_celsius);
}

TEST(CoolingSystem, DeploymentMapRendersGrid) {
  TileMask m(2, 3);
  m.set(0, 1);
  m.set(1, 2);
  EXPECT_EQ(deployment_map(m), ".#.\n..#\n");
}

TEST(CoolingSystem, TableFormattingContainsFields) {
  auto res = design_cooling_system(small_request());
  const std::string row = format_table_row(res);
  EXPECT_NE(row.find("mini"), std::string::npos);
  EXPECT_NE(row.find("ok"), std::string::npos);
  EXPECT_FALSE(table_header().empty());
}

}  // namespace
}  // namespace tfc::core
