/// tfc::engine audit certificates — the numerical-health contracts:
///  * a healthy direct solve certifies with a tiny pencil residual and a
///    closed energy balance (the row-sum identity of the Stieltjes G);
///  * the certificate holds for the direct solve and the CG cross-check at
///    every thread count on the paper's Alpha deployment, not just on toy
///    grids;
///  * CG hitting its iteration cap throws the typed CgNonConvergedError
///    and bumps engine.cg.nonconverged instead of returning a wrong θ.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>

#include "core/cooling_system.h"
#include "engine/audit.h"
#include "engine/solve_context.h"
#include "floorplan/alpha21364.h"
#include "linalg/cg.h"
#include "obs/obs.h"
#include "par/thread_pool.h"
#include "power/workload.h"
#include "tec/electro_thermal.h"

namespace tfc::engine {

/// Test access to SolveContext's private capped CG.
struct SolveContextTestPeer {
  static std::optional<tec::OperatingPoint> solve_cg(const SolveContext& ctx, double i,
                                                     std::size_t max_iterations) {
    return ctx.solve_cg(i, max_iterations);
  }
};

namespace {

thermal::PackageGeometry small_geom() {
  thermal::PackageGeometry g;
  g.tile_rows = g.tile_cols = 4;
  g.die_width = g.die_height = 2e-3;
  return g;
}

linalg::Vector small_powers() {
  linalg::Vector p(16, 0.08);
  p[5] = 0.5;
  p[10] = 0.4;
  return p;
}

TileMask two_tiles() {
  TileMask dep(4, 4);
  dep.set(1, 1);
  dep.set(2, 2);
  return dep;
}

SolveContext make_context() {
  return SolveContext(small_geom(), two_tiles(), small_powers(),
                      tec::TecDeviceParams::chowdhury_superlattice());
}

/// The paper's Alpha chip under its worst-case map at an 85 °C limit.
core::DesignRequest alpha_request() {
  const auto plan = floorplan::alpha21364();
  power::WorkloadSynthesizer synth(plan);
  core::DesignRequest req;
  req.chip_name = "Alpha";
  req.tile_powers =
      power::worst_case_profile(plan, synth.synthesize_suite(8)).tile_powers();
  req.theta_limit_celsius = 85.0;
  return req;
}

TEST(Audit, HealthyDirectSolveCertifiesWithinDefaultTolerances) {
  const SolveContext ctx = make_context();
  const auto op = ctx.solve(1.0);
  ASSERT_TRUE(op.has_value());

  const auto cert = audit_point(ctx.system(), *op, ctx.runaway_limit());
  EXPECT_GE(cert.rel_residual, 0.0);
  EXPECT_LT(cert.rel_residual, 1e-11);
  EXPECT_GE(cert.energy_balance_rel, 0.0);
  EXPECT_LT(cert.energy_balance_rel, 1e-9);
  EXPECT_GT(cert.theta_min_k, 150.0);
  EXPECT_LT(cert.theta_max_k, 1000.0);
  ASSERT_TRUE(cert.has_lambda_margin);
  EXPECT_GT(cert.lambda_margin_a, 0.0);
  EXPECT_FALSE(cert.degraded);
  EXPECT_TRUE(cert.pass(obs::health::Tolerances{}));

  // describe() names every judged quantity — it is the WARN payload.
  const std::string text = cert.describe();
  EXPECT_NE(text.find("rel_residual"), std::string::npos);
  EXPECT_NE(text.find("energy_balance"), std::string::npos);
  EXPECT_NE(text.find("lambda_margin_a"), std::string::npos);
}

TEST(Audit, EnergyBalanceClosesOnAnalyticPassiveCase) {
  // No TECs, i = 0: no Joule, no Peltier — the heat rejected at the ambient
  // boundary must equal the injected source power exactly (row-sum identity
  // of the conductance matrix), so closure is float-roundoff only.
  SolveContext ctx(small_geom(), TileMask(), small_powers(),
                   tec::TecDeviceParams::chowdhury_superlattice());
  const auto op = ctx.solve(0.0);
  ASSERT_TRUE(op.has_value());

  const auto balance = ctx.system().energy_balance(0.0, op->theta);
  EXPECT_DOUBLE_EQ(balance.joule_w, 0.0);
  EXPECT_DOUBLE_EQ(balance.peltier_w, 0.0);
  EXPECT_GT(balance.source_w, 0.0);
  EXPECT_NEAR(balance.injected_w, balance.source_w, 1e-12);
  EXPECT_LT(balance.relative, 1e-11);
}

TEST(Audit, EnergyBalanceDecomposesActiveSolve) {
  const SolveContext ctx = make_context();
  const double current = 1.5;
  const auto op = ctx.solve(current);
  ASSERT_TRUE(op.has_value());

  const auto balance = ctx.system().energy_balance(current, op->theta);
  EXPECT_GT(balance.source_w, 0.0);
  EXPECT_GT(balance.joule_w, 0.0);  // r·i²/2 on both plates
  EXPECT_NEAR(balance.injected_w,
              balance.source_w + balance.joule_w + balance.peltier_w, 1e-12);
  EXPECT_NEAR(balance.rejected_w, balance.injected_w,
              1e-10 * std::abs(balance.injected_w));
  EXPECT_LT(balance.relative, 1e-10);
}

TEST(Audit, ResidualBelowTargetOnAlphaAcrossBackendsAndThreads) {
  // The acceptance bar: on the paper's Alpha worst-case deployment the
  // direct solve certifies at rel residual < 1e-10 and balance < 1e-8, and
  // the CG cross-check at < 1e-9, at every thread count.
  const core::DesignRequest req = alpha_request();
  const auto design = core::design_cooling_system(req);
  ASSERT_TRUE(design.success);

  for (const bool cg : {false, true}) {
    const char* solver = cg ? "cg" : "direct";
    for (std::size_t threads : {std::size_t(1), std::size_t(4)}) {
      par::ThreadPool::set_global_threads(threads);
      SolveContext ctx(thermal::PackageGeometry{}, design.deployment,
                       req.tile_powers,
                       tec::TecDeviceParams::chowdhury_superlattice());
      const auto op = cg ? ctx.solve_cg(design.current) : ctx.solve(design.current);
      ASSERT_TRUE(op.has_value()) << solver << " threads=" << threads;
      const auto cert = audit_point(ctx.system(), *op, ctx.runaway_limit());
      EXPECT_LT(cert.rel_residual, cg ? 1e-9 : 1e-10)
          << solver << " threads=" << threads;
      EXPECT_LT(cert.energy_balance_rel, 1e-8) << solver << " threads=" << threads;
      EXPECT_TRUE(cert.pass(obs::health::Tolerances{}))
          << solver << " threads=" << threads << " " << cert.describe();
    }
  }
  par::ThreadPool::set_global_threads(0);
}

TEST(Audit, NearRunawaySolvePasses) {
  // Near λ_m the steady θ is correct and far above any fixed ceiling: on
  // Alpha's designed deployment at 0.95·λ_m the hottest node passes 1000 K,
  // and the certificate (residual, balance, finiteness, floor, margin) holds.
  const core::DesignRequest req = alpha_request();
  const auto design = core::design_cooling_system(req);
  ASSERT_TRUE(design.success);

  const SolveContext ctx(thermal::PackageGeometry{}, design.deployment, req.tile_powers,
                         tec::TecDeviceParams::chowdhury_superlattice());
  const auto lambda_m = ctx.runaway_limit();
  ASSERT_TRUE(lambda_m.has_value());
  const auto op = ctx.solve(0.95 * *lambda_m);
  ASSERT_TRUE(op.has_value());
  const auto cert = ctx.audit(*op);
  EXPECT_GT(cert.theta_max_k, 1000.0);
  EXPECT_TRUE(cert.pass(obs::health::Tolerances{})) << cert.describe();
}

TEST(Audit, CorruptedThetaTripsTheCertificate) {
  const SolveContext ctx = make_context();
  auto op = ctx.solve(1.0);
  ASSERT_TRUE(op.has_value());
  for (std::size_t k = 0; k < op->theta.size(); ++k) op->theta[k] += 2.0;

  const auto cert = audit_point(ctx.system(), *op);
  EXPECT_GT(cert.rel_residual, 1e-6);
  EXPECT_FALSE(cert.pass(obs::health::Tolerances{}));
}

TEST(Audit, DegradedCertificateNeverPasses) {
  const SolveContext ctx = make_context();
  const auto op = ctx.solve(1.0);
  ASSERT_TRUE(op.has_value());
  const auto cert = audit_point(ctx.system(), *op, std::nullopt, /*degraded=*/true);
  EXPECT_TRUE(cert.degraded);
  EXPECT_FALSE(cert.has_lambda_margin);
  EXPECT_FALSE(cert.pass(obs::health::Tolerances{}));
}

TEST(Audit, RecordAuditMetricsCountsSamplesViolationsAndDegraded) {
  auto& m = obs::MetricsRegistry::global();

  const SolveContext ctx = make_context();
  auto op = ctx.solve(1.0);  // its own sampled audit lands before the baseline
  ASSERT_TRUE(op.has_value());

  const auto samples0 = m.counter("engine.audit.samples").value();
  const auto violations0 = m.counter("engine.audit.violations").value();
  const auto degraded0 = m.counter("engine.audit.degraded").value();

  const auto good = audit_point(ctx.system(), *op);
  EXPECT_TRUE(record_audit_metrics(good));

  // A corrupted θ is a hard violation; a degraded solve counts separately
  // (the failure was already surfaced, e.g. as CgNonConvergedError).
  auto bad_op = *op;
  for (std::size_t k = 0; k < bad_op.theta.size(); ++k) bad_op.theta[k] += 2.0;
  auto bad = audit_point(ctx.system(), bad_op);
  EXPECT_FALSE(record_audit_metrics(bad));

  auto degraded = audit_point(ctx.system(), *op, std::nullopt, /*degraded=*/true);
  EXPECT_FALSE(record_audit_metrics(degraded));

  EXPECT_EQ(m.counter("engine.audit.samples").value(), samples0 + 3);
  EXPECT_EQ(m.counter("engine.audit.violations").value(), violations0 + 1);
  EXPECT_EQ(m.counter("engine.audit.degraded").value(), degraded0 + 1);
}

TEST(Audit, CgIterationCapThrowsTypedErrorAndCounts) {
  // The public solve_cg caps at kCgMaxIterations, which this small, well-
  // conditioned pencil never needs (it converges in tens of iterations);
  // the capped overload stops after 3 to reach the same typed error path.
  const SolveContext ctx = make_context();
  ASSERT_TRUE(ctx.solve_cg(1.0).has_value());

  auto& m = obs::MetricsRegistry::global();
  const auto nonconv0 = m.counter("engine.cg.nonconverged").value();
  const auto degraded0 = m.counter("engine.audit.degraded").value();
  try {
    (void)SolveContextTestPeer::solve_cg(ctx, 1.0, 3);
    FAIL() << "expected CgNonConvergedError";
  } catch (const CgNonConvergedError& e) {
    EXPECT_EQ(e.iterations(), 3u);
    EXPECT_GT(e.rel_residual(), linalg::kCgRelTol);
    EXPECT_NE(std::string(e.what()).find("failed to converge"),
              std::string::npos);
  }
  EXPECT_EQ(m.counter("engine.cg.nonconverged").value(), nonconv0 + 1);
  EXPECT_EQ(m.counter("engine.audit.degraded").value(), degraded0 + 1);
}

TEST(Audit, InternalSamplingAuditsFirstSolveDeterministically) {
  auto& m = obs::MetricsRegistry::global();
  const auto samples0 = m.counter("engine.audit.samples").value();

  // Solve 0 audits, 1 .. N−1 do not, N audits again (N = 16 in Release,
  // 1 in Debug); the direct solve and the CG cross-check share the count.
  const std::size_t every = SolveContext::kAuditSampleEvery;
  const SolveContext ctx = make_context();
  for (std::size_t k = 0; k < every; ++k) ASSERT_TRUE(ctx.solve(1.0).has_value());
  EXPECT_EQ(m.counter("engine.audit.samples").value(), samples0 + 1);
  ASSERT_TRUE(ctx.solve_cg(1.0).has_value());
  EXPECT_EQ(m.counter("engine.audit.samples").value(), samples0 + 2);

  // The probe path of the design search is never audited.
  const auto samples1 = m.counter("engine.audit.samples").value();
  for (std::size_t k = 0; k < 2 * every; ++k) ASSERT_TRUE(ctx.probe_peak(1.0).has_value());
  EXPECT_EQ(m.counter("engine.audit.samples").value(), samples1);
}

}  // namespace
}  // namespace tfc::engine
