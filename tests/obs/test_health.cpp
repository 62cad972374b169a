/// tfc::obs::health — Certificate tolerance judgments and the rolling
/// HealthMonitor verdict machine, physics-free by construction.
#include "obs/health.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

namespace tfc::obs::health {
namespace {

Certificate good_certificate() {
  Certificate c;
  c.current_a = 2.0;
  c.rel_residual = 1e-12;
  c.energy_balance_rel = 1e-11;
  c.theta_min_k = 300.0;
  c.theta_max_k = 360.0;
  c.lambda_margin_a = 5.0;
  c.has_lambda_margin = true;
  return c;
}

TEST(Certificate, DefaultsNeverTripToleranceTheyWereNotMeasuredAgainst) {
  Certificate c;  // nothing computed: ratios negative, bounds zeroed
  c.theta_min_k = 300.0;
  c.theta_max_k = 320.0;
  EXPECT_TRUE(c.pass(Tolerances{}));
}

TEST(Certificate, EachComputedFieldIsJudged) {
  const Tolerances tol;
  EXPECT_TRUE(good_certificate().pass(tol));

  Certificate c = good_certificate();
  c.rel_residual = 1e-3;
  EXPECT_FALSE(c.pass(tol));

  c = good_certificate();
  c.energy_balance_rel = 1.0;
  EXPECT_FALSE(c.pass(tol));

  c = good_certificate();
  c.theta_max_k = std::numeric_limits<double>::infinity();  // not a solution
  EXPECT_FALSE(c.pass(tol));

  c = good_certificate();
  c.theta_min_k = 10.0;  // below the sanity floor
  EXPECT_FALSE(c.pass(tol));

  c = good_certificate();
  c.lambda_margin_a = -0.5;  // operating beyond the runaway limit
  EXPECT_FALSE(c.pass(tol));

  c = good_certificate();
  c.degraded = true;
  EXPECT_FALSE(c.pass(tol));
}

TEST(Certificate, NonFiniteFieldsFail) {
  // Every bound is a </> comparison, which a NaN never trips: finiteness is
  // its own check.
  const Tolerances tol;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();

  Certificate c = good_certificate();
  c.rel_residual = nan;
  EXPECT_FALSE(c.pass(tol));

  c = good_certificate();
  c.energy_balance_rel = nan;
  EXPECT_FALSE(c.pass(tol));

  c = good_certificate();
  c.theta_min_k = nan;
  EXPECT_FALSE(c.pass(tol));

  c = good_certificate();
  c.theta_max_k = nan;
  EXPECT_FALSE(c.pass(tol));

  c = good_certificate();
  c.theta_max_k = inf;
  EXPECT_FALSE(c.pass(tol));

  c = good_certificate();
  c.lambda_margin_a = nan;
  EXPECT_FALSE(c.pass(tol));

  // All four computed fields NaN at once.
  c = good_certificate();
  c.rel_residual = c.energy_balance_rel = c.theta_min_k = c.theta_max_k = nan;
  EXPECT_FALSE(c.pass(tol));

  // A hot but finite θ is physics, not a broken solve.
  c = good_certificate();
  c.theta_max_k = 5000.0;
  EXPECT_TRUE(c.pass(tol));
}

TEST(Certificate, DescribeNamesTheJudgedQuantities) {
  const std::string text = good_certificate().describe();
  EXPECT_NE(text.find("rel_residual"), std::string::npos);
  EXPECT_NE(text.find("energy_balance"), std::string::npos);
  EXPECT_NE(text.find("theta_k"), std::string::npos);
  EXPECT_NE(text.find("lambda_margin_a"), std::string::npos);
}

TEST(HealthMonitor, StartsGreenAndStaysGreenOnPassingCertificates) {
  HealthMonitor monitor;
  EXPECT_EQ(monitor.verdict(), Verdict::kGreen);
  EXPECT_TRUE(monitor.record_certificate("a", good_certificate()));
  EXPECT_TRUE(monitor.record_certificate("b", good_certificate()));
  EXPECT_EQ(monitor.verdict(), Verdict::kGreen);
  EXPECT_TRUE(monitor.offending_scopes().empty());
  EXPECT_EQ(monitor.total_samples(), 2u);
  EXPECT_EQ(monitor.total_violations(), 0u);
}

TEST(HealthMonitor, ViolationFlipsRedAndNamesTheScope) {
  HealthMonitor monitor;
  EXPECT_TRUE(monitor.record_certificate("healthy", good_certificate()));
  Certificate bad = good_certificate();
  bad.rel_residual = 0.1;
  EXPECT_FALSE(monitor.record_certificate("sick", bad));

  EXPECT_EQ(monitor.verdict(), Verdict::kRed);
  const auto offenders = monitor.offending_scopes();
  ASSERT_EQ(offenders.size(), 1u);
  EXPECT_EQ(offenders[0], "sick");
  EXPECT_EQ(monitor.total_violations(), 1u);
}

TEST(HealthMonitor, DegradedIsBetweenGreenAndRed) {
  HealthMonitor monitor;
  monitor.record_degraded("s");
  EXPECT_EQ(monitor.verdict(), Verdict::kDegraded);

  Certificate bad = good_certificate();
  bad.energy_balance_rel = 1.0;
  monitor.record_certificate("s", bad);
  EXPECT_EQ(monitor.verdict(), Verdict::kRed);  // red dominates degraded
}

TEST(HealthMonitor, VerdictRecoversOnceTheWindowTurnsOver) {
  HealthMonitor monitor(Tolerances{}, /*window=*/4);
  Certificate bad = good_certificate();
  bad.rel_residual = 0.1;
  monitor.record_certificate("s", bad);
  EXPECT_EQ(monitor.verdict(), Verdict::kRed);

  for (int k = 0; k < 4; ++k) monitor.record_certificate("s", good_certificate());
  EXPECT_EQ(monitor.verdict(), Verdict::kGreen);

  // Lifetime counters keep the forensic trail after recovery.
  const auto snapshot = monitor.snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].second.violations, 1u);
  EXPECT_EQ(snapshot[0].second.samples, 5u);
  EXPECT_EQ(snapshot[0].second.window_samples, 4u);
  EXPECT_EQ(snapshot[0].second.window_violations, 0u);
}

TEST(HealthMonitor, CrossCheckDriftIsAViolation) {
  HealthMonitor monitor;
  EXPECT_TRUE(monitor.record_cross_check("s", 1e-9));
  EXPECT_EQ(monitor.verdict(), Verdict::kGreen);

  EXPECT_FALSE(monitor.record_cross_check("s", 1e-3));
  EXPECT_EQ(monitor.verdict(), Verdict::kRed);

  const auto snapshot = monitor.snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].second.cross_checks, 2u);
  EXPECT_EQ(snapshot[0].second.cross_check_failures, 1u);
  EXPECT_DOUBLE_EQ(snapshot[0].second.last_cross_check_drift, 1e-3);
}

TEST(HealthMonitor, NegativeDriftMeansTheCheckerFailedAndCounts) {
  // A cross-check whose second backend produced no θ (drift unknown) is a
  // failure: the monitor must not shrug off an unverifiable solve.
  HealthMonitor monitor;
  EXPECT_FALSE(monitor.record_cross_check("s", -1.0));
  EXPECT_EQ(monitor.verdict(), Verdict::kRed);
}

TEST(HealthMonitor, TracksWorstObservedRatiosPerScope) {
  HealthMonitor monitor;
  Certificate c = good_certificate();
  c.rel_residual = 1e-12;
  monitor.record_certificate("s", c);
  c.rel_residual = 1e-8;
  c.energy_balance_rel = 1e-6;
  monitor.record_certificate("s", c);
  c.rel_residual = 1e-13;
  monitor.record_certificate("s", c);

  const auto snapshot = monitor.snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_DOUBLE_EQ(snapshot[0].second.worst_rel_residual, 1e-8);
  EXPECT_DOUBLE_EQ(snapshot[0].second.worst_energy_balance_rel, 1e-6);
}

TEST(HealthMonitor, SnapshotIsNameSortedAcrossScopes) {
  HealthMonitor monitor;
  monitor.record_certificate("zeta", good_certificate());
  monitor.record_certificate("alpha", good_certificate());
  const auto snapshot = monitor.snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].first, "alpha");
  EXPECT_EQ(snapshot[1].first, "zeta");
}

TEST(HealthMonitor, CustomTolerancesAreApplied) {
  Tolerances strict;
  strict.max_rel_residual = 1e-14;
  HealthMonitor monitor(strict);
  EXPECT_FALSE(monitor.record_certificate("s", good_certificate()));
  EXPECT_EQ(monitor.verdict(), Verdict::kRed);
}

TEST(VerdictName, StableLowercaseNames) {
  EXPECT_STREQ(verdict_name(Verdict::kGreen), "green");
  EXPECT_STREQ(verdict_name(Verdict::kDegraded), "degraded");
  EXPECT_STREQ(verdict_name(Verdict::kRed), "red");
}

}  // namespace
}  // namespace tfc::obs::health
