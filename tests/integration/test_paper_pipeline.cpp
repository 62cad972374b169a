/// End-to-end integration tests at the paper's experimental conditions:
/// floorplan → synthetic workloads → worst-case map → GreedyDeploy +
/// current optimization → Table-I-shaped results.
#include <gtest/gtest.h>

#include "core/cooling_system.h"
#include "core/multipin.h"
#include "floorplan/alpha21364.h"
#include "floorplan/random_chip.h"
#include "power/workload.h"
#include "thermal/validation.h"

namespace tfc {
namespace {

linalg::Vector worst_case_map(const floorplan::Floorplan& plan) {
  power::WorkloadSynthesizer synth(plan);
  return power::worst_case_profile(plan, synth.synthesize_suite(8)).tile_powers();
}

core::DesignRequest alpha_request() {
  core::DesignRequest req;
  req.chip_name = "Alpha";
  req.tile_powers = worst_case_map(floorplan::alpha21364());
  req.theta_limit_celsius = 85.0;
  return req;
}

TEST(PaperPipeline, AlphaNoTecPeakNearPublished) {
  // Paper Table I row 1: θpeak = 91.8 °C without TECs (ours is calibrated to
  // the same regime; the match is in shape, not in the third digit).
  auto res = core::design_cooling_system(alpha_request());
  EXPECT_NEAR(res.peak_no_tec_celsius, 91.8, 1.5);
}

TEST(PaperPipeline, AlphaGreedySucceedsAt85) {
  auto res = core::design_cooling_system(alpha_request());
  EXPECT_TRUE(res.success);
  EXPECT_LE(res.peak_greedy_celsius, 85.0);
  // Published: 16 TEC devices; same regime (the hot cluster, not the chip).
  EXPECT_GE(res.tec_count, 8u);
  EXPECT_LE(res.tec_count, 24u);
  // Published: I_opt = 6.10 A.
  EXPECT_GT(res.current, 3.0);
  EXPECT_LT(res.current, 10.0);
  // Published: P_TEC = 1.31 W ("reasonably small").
  EXPECT_GT(res.tec_power, 0.4);
  EXPECT_LT(res.tec_power, 3.0);
}

TEST(PaperPipeline, AlphaCoolingSwingInPublishedBand) {
  // "the active cooling swing can reach 7.5 ºC"; Chowdhury et al. report
  // 5.4–9.6 °C of on-demand cooling.
  auto res = core::design_cooling_system(alpha_request());
  const double swing = res.peak_no_tec_celsius - res.peak_greedy_celsius;
  EXPECT_GE(swing, 5.0);
  EXPECT_LE(swing, 10.5);
}

TEST(PaperPipeline, AlphaDeploymentCoversHotClusterOnly) {
  // Figure 7(b): only the high-density units are covered; the L2 half of the
  // die gets nothing.
  auto res = core::design_cooling_system(alpha_request());
  ASSERT_TRUE(res.success);
  for (std::size_t r = 6; r < 12; ++r) {
    for (std::size_t c = 0; c < 12; ++c) {
      EXPECT_FALSE(res.deployment.test(r, c)) << "TEC over L2 at (" << r << "," << c << ")";
    }
  }
  // The IntReg tiles (rows 4-5, cols 3-4) are covered.
  EXPECT_TRUE(res.deployment.test(4, 3));
  EXPECT_TRUE(res.deployment.test(5, 4));
}

TEST(PaperPipeline, AlphaFullCoverIsWorse) {
  // Section VI.A: "placing excessive TEC devices would decrease the
  // efficiency of the active cooling system" — SwingLoss > 0.
  auto res = core::design_cooling_system(alpha_request());
  EXPECT_GT(res.swing_loss_celsius, 0.5);
  EXPECT_GT(res.full_cover_min_peak_celsius, 85.0);
}

TEST(PaperPipeline, AlphaRuntimeWellUnderPaperBudget) {
  // "the execution time of our algorithm is less than 3 minutes"; "within 2
  // minutes" for Alpha. Modern hardware + sparse solvers: a second or two.
  auto res = core::design_cooling_system(alpha_request());
  EXPECT_LT(res.runtime_ms, 120000.0);
}

TEST(PaperPipeline, AlphaConvexityCertified) {
  auto req = alpha_request();
  req.run_full_cover = false;
  req.run_convexity_certificate = true;
  auto res = core::design_cooling_system(req);
  ASSERT_TRUE(res.convexity.has_value());
  EXPECT_TRUE(res.convexity->certified);
}

TEST(PaperPipeline, AlphaModelValidatesAgainstFineGrid) {
  // Section VI: compact model vs HotSpot agreed within 1.5 °C worst case.
  auto report = thermal::validate_against_reference(
      *thermal::paper_package(), TileMask(), {}, worst_case_map(floorplan::alpha21364()));
  EXPECT_LT(report.max_abs_diff, 1.5);
}

TEST(PaperPipeline, HypotheticalChipRunsEndToEnd) {
  core::DesignRequest req;
  req.chip_name = floorplan::hypothetical_chip_name(5);
  req.tile_powers = worst_case_map(floorplan::hypothetical_chip(5));
  req.theta_limit_celsius = 85.0;
  auto res = core::design_cooling_system(req);
  EXPECT_GT(res.peak_no_tec_celsius, 85.0);  // needs TECs (generator regime)
  if (res.success) {
    EXPECT_LE(res.peak_greedy_celsius, 85.0);
    EXPECT_GT(res.tec_count, 0u);
  } else {
    // The paper's HC06/HC09 case: relaxing the limit makes it feasible.
    core::DesignRequest relaxed = req;
    relaxed.theta_limit_celsius = res.peak_no_tec_celsius - 2.0;
    bool ok = false;
    for (int extra = 0; extra < 12 && !ok; ++extra) {
      relaxed.theta_limit_celsius += 1.0;
      ok = core::design_cooling_system(relaxed).success;
    }
    EXPECT_TRUE(ok);
  }
}

TEST(PaperPipeline, MultiPinExtensionBeatsSinglePinOnAlpha) {
  auto res = core::design_cooling_system(alpha_request());
  ASSERT_TRUE(res.success);
  auto req = alpha_request();
  auto sys = tec::ElectroThermalSystem::assemble(req.spec, res.deployment,
                                                 req.tile_powers, req.device);
  auto mp = core::optimize_multi_pin(sys, res.current, /*max_sweeps=*/2);  // keep it fast
  EXPECT_LE(mp.peak_tile_temperature,
            thermal::to_kelvin(res.peak_greedy_celsius) + 1e-9);
}

}  // namespace
}  // namespace tfc
