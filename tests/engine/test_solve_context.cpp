/// tfc::engine::SolveContext — the tentpole invariants:
///  * set_deployment() re-stamps by a from-scratch assembly, so a grown
///    context solves exactly what a freshly built one does;
///  * the direct solve and the CG cross-check agree on the operating point
///    and on where positive definiteness is lost (i ≥ λ_m);
///  * the pooled-workspace probe path returns exactly what a plain
///    ElectroThermalSystem::solve returns, also when it reuses the factor of
///    G that the λ_m solve left in the workspace.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>

#include "engine/solve_context.h"
#include "obs/obs.h"
#include "par/parallel.h"
#include "par/thread_pool.h"
#include "tec/electro_thermal.h"

namespace tfc::engine {
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

std::uint64_t restamps() {
  return obs::MetricsRegistry::global().counter("engine.restamps").value();
}

/// \p ctx's G is the CSR of a fresh assembly of \p deployment, bit for bit,
/// and its solves return the fresh system's bits.
void expect_fresh_assembly(const SolveContext& ctx, const TileMask& deployment) {
  const auto fresh = tec::ElectroThermalSystem::assemble(
      small_geom(), deployment, small_powers(),
      tec::TecDeviceParams::chowdhury_superlattice());
  EXPECT_EQ(ctx.system().matrix_g().row_ptr(), fresh.matrix_g().row_ptr());
  EXPECT_EQ(ctx.system().matrix_g().col_idx(), fresh.matrix_g().col_idx());
  EXPECT_EQ(ctx.system().matrix_g().values(), fresh.matrix_g().values());
  EXPECT_EQ(ctx.system().d_diagonal(), fresh.d_diagonal());
  for (double i : {0.0, 0.5, 2.0}) {
    auto a = ctx.solve(i);
    auto b = fresh.solve(i);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(a->peak_tile_temperature, b->peak_tile_temperature) << "i=" << i;
    EXPECT_EQ(a->theta, b->theta) << "i=" << i;
  }
}

TEST(SolveContext, SetDeploymentRestampsEachPassAndMatchesFreshAssembly) {
  // Greedy deployment grows the deployment pass by pass; every pass is one
  // re-stamp, and the grown context is the fresh assembly.
  SolveContext ctx(small_geom(), TileMask(), small_powers(),
                   tec::TecDeviceParams::chowdhury_superlattice());
  const std::uint64_t restamps0 = restamps();

  TileMask dep(4, 4);
  dep.set(1, 1);
  ctx.set_deployment(dep);
  dep.set(2, 2);
  dep.set(0, 3);
  ctx.set_deployment(dep);
  EXPECT_EQ(restamps(), restamps0 + 2);
  EXPECT_EQ(ctx.deployment().count(), 3u);
  expect_fresh_assembly(ctx, dep);
}

TEST(SolveContext, SetDeploymentToTheCurrentMaskIsANoOp) {
  SolveContext ctx = make_context();
  const std::uint64_t restamps0 = restamps();
  const std::uint64_t pencil = ctx.system().pencil_id();
  ctx.set_deployment(two_tiles());  // the current deployment
  EXPECT_EQ(restamps(), restamps0);
  EXPECT_EQ(ctx.system().pencil_id(), pencil);
}

TEST(SolveContext, SetDeploymentHandlesNonAdditiveDelta) {
  SolveContext ctx = make_context();
  const std::uint64_t restamps0 = restamps();
  TileMask other(4, 4);
  other.set(0, 0);  // (1,1)/(2,2) removed: not an additive delta
  ctx.set_deployment(other);
  EXPECT_EQ(restamps(), restamps0 + 1);
  EXPECT_EQ(ctx.deployment().count(), 1u);
  EXPECT_EQ(ctx.device_count(), 1u);
  expect_fresh_assembly(ctx, other);

  ctx.set_deployment(TileMask());  // back to passive
  EXPECT_EQ(restamps(), restamps0 + 2);
  EXPECT_EQ(ctx.device_count(), 0u);
  expect_fresh_assembly(ctx, TileMask(4, 4));
}

TEST(SolveContext, ProbePeakMatchesSolveProbe) {
  const SolveContext ctx = make_context();
  for (double i : {0.0, 0.3, 1.7}) {
    auto peak = ctx.probe_peak(i);
    auto op = ctx.solve(i);
    ASSERT_TRUE(peak.has_value());
    ASSERT_TRUE(op.has_value());
    EXPECT_EQ(peak->peak, op->peak_tile_temperature) << "i=" << i;
  }
  EXPECT_FALSE(ctx.probe_peak(-1.0).has_value());
}

TEST(SolveContext, ConcurrentProbesMatchSerialBitwise) {
  // The pooled workspaces under concurrent probes (the TSan target): 64
  // currents up to past λ_m, serially and from 8 pool threads.
  const SolveContext ctx = make_context();
  const auto lambda_m = ctx.runaway_limit();
  ASSERT_TRUE(lambda_m.has_value());
  struct Probe {
    std::optional<double> peak;
    double slope = 0.0;
    double curvature = 0.0;
  };
  const std::size_t count = 64;
  const auto probe = [&](std::size_t k) {
    Probe p;
    if (auto r = ctx.probe_peak(1.05 * *lambda_m * double(k) / double(count - 1))) {
      p.peak = r->peak;
      p.slope = r->slope;
      p.curvature = r->curvature;
    }
    return p;
  };
  std::vector<Probe> serial;
  for (std::size_t k = 0; k < count; ++k) serial.push_back(probe(k));
  par::ThreadPool::set_global_threads(8);
  const std::vector<Probe> concurrent = par::parallel_map(count, probe);
  par::ThreadPool::set_global_threads(0);
  ASSERT_EQ(concurrent.size(), count);
  std::size_t past_limit = 0;
  for (std::size_t k = 0; k < count; ++k) {
    EXPECT_EQ(concurrent[k].peak, serial[k].peak) << k;
    EXPECT_EQ(concurrent[k].slope, serial[k].slope) << k;
    EXPECT_EQ(concurrent[k].curvature, serial[k].curvature) << k;
    if (!serial[k].peak) ++past_limit;
  }
  EXPECT_GT(past_limit, 0u);
}

std::uint64_t counter(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

TEST(SolveContext, ZeroCurrentProbeReusesTheRunawayFactor) {
  // runaway_limit() factors G into a pooled workspace for the Lanczos; the
  // LIFO pool hands that workspace to the next probe, which at i = 0 skips
  // its refactorization and still returns a fresh context's bits.
  const SolveContext ctx = make_context();
  ASSERT_TRUE(ctx.runaway_limit().has_value());
  const std::uint64_t refactors0 = counter("cholesky.sparse.refactors");
  const std::uint64_t reused0 = counter("engine.factor_reused");
  const auto reused = ctx.probe_peak(0.0);
  EXPECT_EQ(counter("cholesky.sparse.refactors"), refactors0);
  EXPECT_EQ(counter("engine.factor_reused"), reused0 + 1);

  const SolveContext fresh_ctx = make_context();
  const auto fresh = fresh_ctx.probe_peak(0.0);
  EXPECT_EQ(counter("cholesky.sparse.refactors"), refactors0 + 1);
  ASSERT_TRUE(reused.has_value());
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(reused->peak, fresh->peak);
  EXPECT_EQ(reused->tile, fresh->tile);
  EXPECT_EQ(reused->slope, fresh->slope);
  EXPECT_EQ(reused->curvature, fresh->curvature);

  // A full solve at the same current reuses the factor too.
  const auto op = ctx.solve(0.0);
  ASSERT_TRUE(op.has_value());
  EXPECT_EQ(op->peak_tile_temperature, fresh->peak);
  EXPECT_EQ(counter("cholesky.sparse.refactors"), refactors0 + 1);
  EXPECT_EQ(counter("engine.factor_reused"), reused0 + 2);
}

TEST(SolveContext, ExtendForgetsTheReusedFactor) {
  SolveContext ctx = make_context();
  ASSERT_TRUE(ctx.runaway_limit().has_value());
  TileMask grown = two_tiles();
  grown.set(3, 3);
  ctx.set_deployment(grown);
  const std::uint64_t refactors0 = counter("cholesky.sparse.refactors");
  const std::uint64_t reused0 = counter("engine.factor_reused");
  const auto probe = ctx.probe_peak(0.0);
  EXPECT_EQ(counter("cholesky.sparse.refactors"), refactors0 + 1);
  EXPECT_EQ(counter("engine.factor_reused"), reused0);

  const SolveContext fresh_ctx(small_geom(), grown, small_powers(),
                               tec::TecDeviceParams::chowdhury_superlattice());
  const auto fresh = fresh_ctx.probe_peak(0.0);
  ASSERT_TRUE(probe.has_value());
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(probe->peak, fresh->peak);
  EXPECT_EQ(probe->slope, fresh->slope);
}

TEST(SolveContext, DirectSolveAndCgAgreeOnTheOperatingPoint) {
  // The direct solve and the CG cross-check (the service's independent
  // reference) reach the same operating point.
  const SolveContext ctx = make_context();
  const auto direct = ctx.solve(1.0);
  const auto cg = ctx.solve_cg(1.0);
  ASSERT_TRUE(direct.has_value());
  ASSERT_TRUE(cg.has_value());
  EXPECT_NEAR(cg->peak_tile_temperature, direct->peak_tile_temperature, 1e-7);
  EXPECT_NEAR(cg->tec_input_power, direct->tec_input_power, 1e-7);
}

TEST(SolveContext, DirectSolveAndCgDetectLossOfPositiveDefiniteness) {
  const SolveContext ctx = make_context();
  const auto lambda_m = ctx.runaway_limit();
  ASSERT_TRUE(lambda_m.has_value());
  const double beyond = *lambda_m * 1.05;

  EXPECT_FALSE(ctx.solve(beyond).has_value());
  EXPECT_TRUE(ctx.solve(*lambda_m * 0.5).has_value());
  EXPECT_FALSE(ctx.solve_cg(beyond).has_value());
  EXPECT_TRUE(ctx.solve_cg(*lambda_m * 0.5).has_value());
  EXPECT_FALSE(ctx.solve(-1.0).has_value());
  EXPECT_FALSE(ctx.solve_cg(-1.0).has_value());
}

TEST(SolveContext, RunawayLimitIsCachedUntilSetDeployment) {
  SolveContext ctx = make_context();
  const auto first = ctx.runaway_limit();
  const auto second = ctx.runaway_limit();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*first, *second);

  TileMask grown = two_tiles();
  grown.set(3, 3);
  ctx.set_deployment(grown);
  const auto after = ctx.runaway_limit();
  ASSERT_TRUE(after.has_value());
  EXPECT_NE(*after, *first);  // λ_m changes with the deployment
}

TEST(SolveContext, RunawayDefaultsToSparseAndCountsEachComputation) {
  SolveContext ctx = make_context();
  EXPECT_FALSE(ctx.cached_runaway_limit().has_value());  // cold cache

  auto& sparse_counter = obs::MetricsRegistry::global().counter("engine.runaway.sparse");
  const std::uint64_t before = sparse_counter.value();
  const auto lm = ctx.runaway_limit();
  ASSERT_TRUE(lm.has_value());
  EXPECT_EQ(sparse_counter.value(), before + 1);

  const auto cached = ctx.cached_runaway_limit();
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(*cached, *lm);

  // Cache hits never re-run the eigensolve.
  const auto again = ctx.runaway_limit();
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*again, *lm);
  EXPECT_EQ(sparse_counter.value(), before + 1);
}

TEST(SolveContext, AdoptingConstructorRecoversInstalledPowers) {
  auto system = tec::ElectroThermalSystem::assemble(
      small_geom(), two_tiles(), small_powers(),
      tec::TecDeviceParams::chowdhury_superlattice());
  const SolveContext adopted(std::move(system));
  const SolveContext built = make_context();
  auto a = adopted.solve(0.8);
  auto b = built.solve(0.8);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->theta, b->theta);
}

TEST(SolveContext, EmptyDeploymentSolvesPassivelyOnly) {
  SolveContext ctx(small_geom(), TileMask(), small_powers(),
                   tec::TecDeviceParams::chowdhury_superlattice());
  EXPECT_EQ(ctx.device_count(), 0u);
  EXPECT_FALSE(ctx.runaway_limit().has_value());
  auto op = ctx.solve(0.0);
  ASSERT_TRUE(op.has_value());
  EXPECT_GT(op->peak_tile_temperature, 0.0);
}

}  // namespace
}  // namespace tfc::engine
