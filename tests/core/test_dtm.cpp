#include "core/dtm.h"

#include <gtest/gtest.h>

#include <memory>

namespace tfc::core {
namespace {

thermal::PackageGeometry small_geom() {
  thermal::PackageGeometry g;
  g.tile_rows = g.tile_cols = 6;
  g.die_width = g.die_height = 3e-3;
  return g;
}

std::shared_ptr<const thermal::StackSpec> small_spec(
    const thermal::PackageGeometry& g = small_geom()) {
  return std::make_shared<const thermal::StackSpec>(thermal::StackSpec::single_die(g));
}

floorplan::Floorplan small_chip() {
  std::vector<floorplan::FunctionalUnit> units = {
      {"HOT", {{2, 2, 2, 2}}, 2.4},
      {"BG1", {{0, 0, 2, 6}}, 1.2},
      {"BG2", {{2, 0, 4, 2}}, 0.8},
      {"BG3", {{2, 4, 4, 2}}, 0.8},
      {"BG4", {{4, 2, 2, 2}}, 0.4},
  };
  floorplan::Floorplan plan(6, 6, std::move(units));
  plan.validate();
  return plan;
}

tec::TecDeviceParams dev() { return tec::TecDeviceParams::chowdhury_superlattice(); }

DtmPolicyOptions limit_at(double celsius) {
  DtmPolicyOptions o;
  o.theta_limit = thermal::to_kelvin(celsius);
  return o;
}

TEST(Dtm, NoThrottlingWhenAlreadyCool) {
  auto r = simulate_dtm(small_chip(), small_spec(), dev(), TileMask(), limit_at(150.0));
  EXPECT_TRUE(r.met_limit);
  EXPECT_DOUBLE_EQ(r.performance, 1.0);
  EXPECT_EQ(r.rounds, 0u);
}

TEST(Dtm, ThrottlesHotUnitToMeetLimit) {
  const auto o = limit_at(70.0);
  auto r = simulate_dtm(small_chip(), small_spec(), dev(), TileMask(), o);
  EXPECT_TRUE(r.met_limit);
  EXPECT_LT(r.performance, 1.0);
  EXPECT_LE(r.peak, o.theta_limit);
  // The hot unit (index 0) took the hit; background units untouched.
  EXPECT_LT(r.unit_scales[0], 1.0);
  EXPECT_DOUBLE_EQ(r.unit_scales[1], 1.0);
}

TEST(Dtm, TecDeploymentPreservesPerformance) {
  // The paper's introduction: active cooling and DTM "operate
  // synergistically" — TECs on the hot spot reduce required throttling.
  const auto o = limit_at(70.0);
  auto passive = simulate_dtm(small_chip(), small_spec(), dev(), TileMask(), o);

  TileMask deployment(6, 6);
  for (std::size_t r = 2; r <= 3; ++r) {
    for (std::size_t c = 2; c <= 3; ++c) deployment.set(r, c);
  }
  auto powered = o;
  powered.current_levels = {5.0};  // a fixed 5 A supply
  auto active = simulate_dtm(small_chip(), small_spec(), dev(), deployment, powered);

  ASSERT_TRUE(passive.met_limit && active.met_limit);
  EXPECT_GT(active.performance, passive.performance);
}

TEST(Dtm, ImpossibleLimitStopsAtFloor) {
  const auto o = limit_at(46.0);  // 1 K over ambient: hopeless
  auto r = simulate_dtm(small_chip(), small_spec(), dev(), TileMask(), o);
  EXPECT_FALSE(r.met_limit);
  // The controller stops by itself once every unit sits at the floor.
  for (double s : r.unit_scales) EXPECT_NEAR(s, o.min_scale, 1e-9);
  EXPECT_GT(r.rounds, 0u);
}

TEST(Dtm, OptionValidation) {
  DtmPolicyOptions o;
  o.scale_step = 0.0;
  EXPECT_THROW(simulate_dtm(small_chip(), small_spec(), dev(), TileMask(), o),
               std::invalid_argument);
  o = {};
  o.min_scale = 1.5;
  EXPECT_THROW(simulate_dtm(small_chip(), small_spec(), dev(), TileMask(), o),
               std::invalid_argument);
  // Grid mismatch.
  thermal::PackageGeometry wrong = small_geom();
  wrong.tile_rows = 4;
  EXPECT_THROW(simulate_dtm(small_chip(), small_spec(wrong), dev(), TileMask(), {}),
               std::invalid_argument);
  // Null spec.
  EXPECT_THROW(simulate_dtm(small_chip(), nullptr, dev(), TileMask(), {}),
               std::invalid_argument);
}

// --- DtmController (the time-domain policy behind tfc::sim) ----------------

/// Tile temperature map with one hot tile inside the HOT unit (row 2, col 2).
linalg::Vector tiles_with_hot_spot(double background_k, double hot_k) {
  linalg::Vector t(36, background_k);
  t[2 * 6 + 2] = hot_k;
  return t;
}

TEST(DtmController, EscalatesCurrentBeforeThrottling) {
  DtmPolicyOptions o;
  o.theta_limit = thermal::to_kelvin(85.0);
  o.current_levels = {0.0, 1.0, 2.0};
  const auto chip = small_chip();
  DtmController ctl(chip, o);
  EXPECT_DOUBLE_EQ(ctl.current(), 0.0);

  const auto hot = tiles_with_hot_spot(330.0, 400.0);
  auto a1 = ctl.decide(hot);
  EXPECT_EQ(a1.kind, DtmActionKind::kCurrentUp);
  EXPECT_DOUBLE_EQ(a1.current_a, 1.0);
  auto a2 = ctl.decide(hot);
  EXPECT_EQ(a2.kind, DtmActionKind::kCurrentUp);
  EXPECT_DOUBLE_EQ(ctl.current(), 2.0);

  // Supply exhausted: the unit owning the hottest tile takes the hit.
  auto a3 = ctl.decide(hot);
  EXPECT_EQ(a3.kind, DtmActionKind::kThrottle);
  EXPECT_EQ(a3.unit, 0u);  // "HOT"
  EXPECT_DOUBLE_EQ(a3.scale, 1.0 - o.scale_step);
  EXPECT_LT(ctl.performance(), 1.0);
}

TEST(DtmController, ThrottlesFirstWhenCurrentEscalationDisabled) {
  DtmPolicyOptions o;
  o.current_levels = {0.0, 1.0};
  o.escalate_current_first = false;
  const auto chip = small_chip();
  DtmController ctl(chip, o);
  auto a = ctl.decide(tiles_with_hot_spot(330.0, 400.0));
  EXPECT_EQ(a.kind, DtmActionKind::kThrottle);
  EXPECT_DOUBLE_EQ(ctl.current(), 0.0);
}

TEST(DtmController, RecoveryBoostsThenStepsCurrentDown) {
  DtmPolicyOptions o;
  o.current_levels = {0.0, 1.0};
  const auto chip = small_chip();
  DtmController ctl(chip, o);
  const auto hot = tiles_with_hot_spot(330.0, 400.0);
  ASSERT_EQ(ctl.decide(hot).kind, DtmActionKind::kCurrentUp);
  ASSERT_EQ(ctl.decide(hot).kind, DtmActionKind::kThrottle);

  // Cool, with hysteresis headroom: restore the throttled unit first, then
  // wind the supply back down, then settle at kNone.
  const linalg::Vector cool(36, 300.0);
  auto b = ctl.decide(cool);
  EXPECT_EQ(b.kind, DtmActionKind::kBoost);
  EXPECT_EQ(b.unit, 0u);
  EXPECT_DOUBLE_EQ(b.scale, 1.0);
  auto down = ctl.decide(cool);
  EXPECT_EQ(down.kind, DtmActionKind::kCurrentDown);
  EXPECT_DOUBLE_EQ(ctl.current(), 0.0);
  EXPECT_EQ(ctl.decide(cool).kind, DtmActionKind::kNone);
}

TEST(DtmController, GuardBandSuppressesRecovery) {
  DtmPolicyOptions o;
  o.theta_limit = 360.0;
  o.guard_band = 5.0;
  const auto chip = small_chip();
  DtmController ctl(chip, o);
  ASSERT_EQ(ctl.decide(tiles_with_hot_spot(330.0, 400.0)).kind,
            DtmActionKind::kThrottle);
  // Inside the band (neither over the limit nor under limit − band): hold.
  EXPECT_EQ(ctl.decide(linalg::Vector(36, 357.0)).kind, DtmActionKind::kNone);
  // Below the band: recover.
  EXPECT_EQ(ctl.decide(linalg::Vector(36, 350.0)).kind, DtmActionKind::kBoost);
}

TEST(DtmController, ThrottleRespectsMinScale) {
  DtmPolicyOptions o;
  o.theta_limit = 300.0;
  o.scale_step = 0.5;
  o.min_scale = 0.4;
  const auto chip = small_chip();
  DtmController ctl(chip, o);
  const auto hot = tiles_with_hot_spot(330.0, 400.0);
  EXPECT_EQ(ctl.decide(hot).kind, DtmActionKind::kThrottle);  // HOT -> 0.5
  auto floored = ctl.decide(hot);                             // HOT -> 0.4 (clamped)
  EXPECT_EQ(floored.unit, 0u);
  EXPECT_DOUBLE_EQ(floored.scale, 0.4);
  // HOT is floored; the hottest unit with remaining headroom takes the hit.
  auto a = ctl.decide(hot);
  EXPECT_EQ(a.kind, DtmActionKind::kThrottle);
  EXPECT_NE(a.unit, 0u);
}

TEST(DtmController, InvalidPolicyAndInputsThrow) {
  DtmPolicyOptions bad;
  bad.scale_step = 0.0;
  EXPECT_THROW(DtmController(small_chip(), bad), std::invalid_argument);
  bad = {};
  bad.min_scale = 1.0 + 1e-9;
  EXPECT_THROW(DtmController(small_chip(), bad), std::invalid_argument);
  bad.min_scale = -0.1;
  EXPECT_THROW(DtmController(small_chip(), bad), std::invalid_argument);
  bad = {};
  bad.current_levels = {1.0, 0.5};  // not ascending
  EXPECT_THROW(DtmController(small_chip(), bad), std::invalid_argument);
  bad = {};
  bad.guard_band = -1.0;
  EXPECT_THROW(DtmController(small_chip(), bad), std::invalid_argument);

  const auto chip = small_chip();
  DtmController ctl(chip);
  EXPECT_THROW(ctl.decide(linalg::Vector(7, 300.0)), std::invalid_argument);

  // min_scale 1 is valid and never throttles: no unit has headroom.
  DtmPolicyOptions pinned;
  pinned.min_scale = 1.0;
  DtmController no_throttle(chip, pinned);
  EXPECT_EQ(no_throttle.decide(tiles_with_hot_spot(330.0, 400.0)).kind,
            DtmActionKind::kNone);
  EXPECT_DOUBLE_EQ(no_throttle.performance(), 1.0);
}

TEST(DtmController, ActionNamesAreStable) {
  EXPECT_STREQ(dtm_action_name(DtmActionKind::kNone), "none");
  EXPECT_STREQ(dtm_action_name(DtmActionKind::kThrottle), "throttle");
  EXPECT_STREQ(dtm_action_name(DtmActionKind::kBoost), "boost");
  EXPECT_STREQ(dtm_action_name(DtmActionKind::kCurrentUp), "current_up");
  EXPECT_STREQ(dtm_action_name(DtmActionKind::kCurrentDown), "current_down");
}

TEST(Dtm, PerformanceIsPowerWeighted) {
  auto r = simulate_dtm(small_chip(), small_spec(), dev(), TileMask(), limit_at(70.0));
  // Recompute the metric by hand.
  auto chip = small_chip();
  double retained = 0.0, total = 0.0;
  for (std::size_t u = 0; u < chip.units().size(); ++u) {
    retained += r.unit_scales[u] * chip.units()[u].peak_power;
    total += chip.units()[u].peak_power;
  }
  EXPECT_NEAR(r.performance, retained / total, 1e-12);
}

}  // namespace
}  // namespace tfc::core
