/// tfc::engine::SolveContext — the tentpole invariants:
///  * extend() re-stamps incrementally yet reproduces a from-scratch
///    assembly bit for bit (the Debug assertion inside
///    PackageModel::extend_tec checks the same predicate on every extend);
///  * every backend agrees on the operating point and on where positive
///    definiteness is lost (i ≥ λ_m);
///  * the pooled-workspace probe path returns exactly what a plain
///    ElectroThermalSystem::solve returns.
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

SolveContext make_context(EngineOptions opts = {}) {
  return SolveContext(small_geom(), two_tiles(), small_powers(),
                      tec::TecDeviceParams::chowdhury_superlattice(), opts);
}

std::uint64_t restamp_incremental() {
  return obs::MetricsRegistry::global().counter("engine.restamp.incremental").value();
}

std::uint64_t restamp_full() {
  return obs::MetricsRegistry::global().counter("engine.restamp.full").value();
}

TEST(SolveContext, ExtendRestampsIncrementallyAndMatchesFreshAssembly) {
  SolveContext ctx(small_geom(), TileMask(), small_powers(),
                   tec::TecDeviceParams::chowdhury_superlattice());
  const std::uint64_t inc0 = restamp_incremental();

  TileMask dep(4, 4);
  dep.set(1, 1);
  ctx.extend(dep);
  dep.set(2, 2);
  dep.set(0, 3);
  ctx.extend(dep);
  EXPECT_EQ(restamp_incremental(), inc0 + 2);

  // The restamped network must be bitwise the from-scratch assembly — the
  // same predicate the Debug-mode assert in PackageModel::extend_tec checks.
  EXPECT_TRUE(ctx.system().model().matches_fresh_build());
  EXPECT_EQ(ctx.deployment().count(), 3u);

  // And the solves must agree bit for bit with a freshly assembled system.
  auto fresh = tec::ElectroThermalSystem::assemble(
      small_geom(), dep, small_powers(),
      tec::TecDeviceParams::chowdhury_superlattice());

  // The incrementally re-assembled G (clean rows copied through the node
  // remap, dirty rows restamped) must be the from-scratch CSR exactly.
  EXPECT_EQ(ctx.system().matrix_g().row_ptr(), fresh.matrix_g().row_ptr());
  EXPECT_EQ(ctx.system().matrix_g().col_idx(), fresh.matrix_g().col_idx());
  EXPECT_EQ(ctx.system().matrix_g().values(), fresh.matrix_g().values());

  for (double i : {0.0, 0.5, 2.0}) {
    auto a = ctx.solve_probe(i);
    auto b = fresh.solve(i);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(a->peak_tile_temperature, b->peak_tile_temperature) << "i=" << i;
    EXPECT_EQ(a->theta, b->theta) << "i=" << i;
  }
}

TEST(SolveContext, ExtendWithAlreadyDeployedTilesIsANoOp) {
  SolveContext ctx = make_context();
  const std::uint64_t inc0 = restamp_incremental();
  const std::uint64_t full0 = restamp_full();
  ctx.extend(two_tiles());  // fully covered already
  EXPECT_EQ(restamp_incremental(), inc0);
  EXPECT_EQ(restamp_full(), full0);
}

TEST(SolveContext, IncrementalOffFallsBackToFullRebuildBitwise) {
  EngineOptions off;
  off.incremental_restamp = false;
  SolveContext a(small_geom(), TileMask(), small_powers(),
                 tec::TecDeviceParams::chowdhury_superlattice());
  SolveContext b(small_geom(), TileMask(), small_powers(),
                 tec::TecDeviceParams::chowdhury_superlattice(), off);

  const std::uint64_t full0 = restamp_full();
  a.extend(two_tiles());
  b.extend(two_tiles());
  EXPECT_GE(restamp_full(), full0 + 1);  // b rebuilt from geometry

  auto pa = a.solve_probe(1.0);
  auto pb = b.solve_probe(1.0);
  ASSERT_TRUE(pa.has_value());
  ASSERT_TRUE(pb.has_value());
  EXPECT_EQ(pa->theta, pb->theta);
}

TEST(SolveContext, SetDeploymentHandlesNonAdditiveDelta) {
  SolveContext ctx = make_context();
  const std::uint64_t full0 = restamp_full();
  TileMask other(4, 4);
  other.set(0, 0);  // (1,1)/(2,2) removed: not an additive delta
  ctx.set_deployment(other);
  EXPECT_EQ(restamp_full(), full0 + 1);
  EXPECT_EQ(ctx.deployment().count(), 1u);
  EXPECT_TRUE(ctx.system().model().matches_fresh_build());
  EXPECT_EQ(ctx.device_count(), 1u);
}

TEST(SolveContext, ProbePeakMatchesSolveProbe) {
  const SolveContext ctx = make_context();
  for (double i : {0.0, 0.3, 1.7}) {
    auto peak = ctx.probe_peak(i);
    auto op = ctx.solve_probe(i);
    ASSERT_TRUE(peak.has_value());
    ASSERT_TRUE(op.has_value());
    EXPECT_EQ(*peak, op->peak_tile_temperature) << "i=" << i;
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
  };
  const std::size_t count = 64;
  const auto probe = [&](std::size_t k) {
    Probe p;
    p.peak = ctx.probe_peak(1.05 * *lambda_m * double(k) / double(count - 1), &p.slope);
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
    if (!serial[k].peak) ++past_limit;
  }
  EXPECT_GT(past_limit, 0u);
}

TEST(SolveContext, AllBackendsAgreeOnTheOperatingPoint) {
  const SolveContext direct = make_context();
  const auto reference = direct.solve(1.0);
  ASSERT_TRUE(reference.has_value());

  for (Backend b : {Backend::kCg}) {
    EngineOptions opts;
    opts.backend = b;
    const SolveContext ctx = make_context(opts);
    const auto op = ctx.solve(1.0);
    ASSERT_TRUE(op.has_value()) << backend_name(b);
    EXPECT_NEAR(op->peak_tile_temperature, reference->peak_tile_temperature,
                1e-7) << backend_name(b);
    EXPECT_NEAR(op->tec_input_power, reference->tec_input_power, 1e-7)
        << backend_name(b);
  }
}

TEST(SolveContext, AllBackendsDetectLossOfPositiveDefiniteness) {
  const SolveContext direct = make_context();
  const auto lambda_m = direct.runaway_limit();
  ASSERT_TRUE(lambda_m.has_value());
  const double beyond = *lambda_m * 1.05;

  for (Backend b : {Backend::kCholesky, Backend::kCg}) {
    EngineOptions opts;
    opts.backend = b;
    const SolveContext ctx = make_context(opts);
    EXPECT_FALSE(ctx.solve(beyond).has_value()) << backend_name(b);
    EXPECT_TRUE(ctx.solve(*lambda_m * 0.5).has_value()) << backend_name(b);
  }
}

TEST(SolveContext, SolveBackendOverridesConfiguredBackend) {
  const SolveContext ctx = make_context();  // configured cholesky
  const auto direct = ctx.solve(1.0);
  const auto via_cg = ctx.solve_backend(Backend::kCg, 1.0);
  ASSERT_TRUE(direct.has_value());
  ASSERT_TRUE(via_cg.has_value());
  EXPECT_NEAR(via_cg->peak_tile_temperature, direct->peak_tile_temperature, 1e-7);
}

TEST(SolveContext, RunawayLimitIsCachedUntilExtend) {
  SolveContext ctx = make_context();
  const auto first = ctx.runaway_limit();
  const auto second = ctx.runaway_limit();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*first, *second);

  TileMask grown = two_tiles();
  grown.set(3, 3);
  ctx.extend(grown);
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
  auto a = adopted.solve_probe(0.8);
  auto b = built.solve_probe(0.8);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->theta, b->theta);
}

TEST(SolveContext, EmptyDeploymentSolvesPassivelyOnly) {
  SolveContext ctx(small_geom(), TileMask(), small_powers(),
                   tec::TecDeviceParams::chowdhury_superlattice());
  EXPECT_EQ(ctx.device_count(), 0u);
  EXPECT_FALSE(ctx.runaway_limit().has_value());
  auto op = ctx.solve_probe(0.0);
  ASSERT_TRUE(op.has_value());
  EXPECT_GT(op->peak_tile_temperature, 0.0);
}

}  // namespace
}  // namespace tfc::engine
