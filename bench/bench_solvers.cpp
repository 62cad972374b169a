/// \file bench_solvers.cpp
/// \brief Performance benchmark P1 (google-benchmark): the linear-algebra
/// kernels underlying every experiment — steady-state solves (dense
/// Cholesky vs sparse Cholesky vs preconditioned CG) on real package
/// matrices, and λ_m (the sparse shift-invert Lanczos vs the dense
/// bisection oracle).

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "linalg/cg.h"
#include "linalg/cholesky.h"
#include "linalg/sparse_cholesky.h"
#include "tec/runaway.h"
#include "thermal/validation.h"

namespace {

using namespace tfc;

/// Package system (with TECs) at the given lateral refinement: the reference
/// model with one device per fine cell under each TEC tile. Each fine device
/// is 1/refine² of the full device (conductances, Seebeck coefficient and
/// resistance all scale by the area share, as for electrically parallel
/// sub-devices), so the pencil stays comparable across refinements.
tec::ElectroThermalSystem make_system(std::size_t refine) {
  TileMask dep(12, 12);
  for (std::size_t r = 3; r <= 5; ++r) {
    for (std::size_t c = 3; c <= 7; ++c) dep.set(r, c);
  }
  const auto full = tec::TecDeviceParams::chowdhury_superlattice();
  static const auto powers = bench::worst_case_map(floorplan::alpha21364());
  auto model = thermal::build_reference_model(*thermal::paper_package(), dep,
                                               full.thermal_link(), powers,
                                               {refine, 1, 1, 1});
  const double share = 1.0 / double(refine * refine);
  tec::TecDeviceParams fine = full;
  fine.seebeck *= share;
  fine.resistance *= share;
  fine.internal_conductance *= share;
  fine.g_hot_contact *= share;
  fine.g_cold_contact *= share;
  return tec::ElectroThermalSystem(std::move(model), fine);
}

void BM_SteadySolve_SparseCholesky(benchmark::State& state) {
  auto sys = make_system(std::size_t(state.range(0)));
  const auto a = sys.system_matrix(4.0);
  const auto b = sys.rhs(4.0);
  for (auto _ : state) {
    auto f = linalg::SparseCholeskyFactor::factor(a);
    benchmark::DoNotOptimize(f->solve(b));
  }
  state.counters["nodes"] = double(sys.node_count());
}
BENCHMARK(BM_SteadySolve_SparseCholesky)->Arg(1)->Arg(2)->Arg(3);

void BM_SteadySolve_DenseCholesky(benchmark::State& state) {
  auto sys = make_system(std::size_t(state.range(0)));
  const auto a = sys.system_matrix(4.0).to_dense();
  const auto b = sys.rhs(4.0);
  for (auto _ : state) {
    auto f = linalg::CholeskyFactor::factor(a);
    benchmark::DoNotOptimize(f->solve(b));
  }
  state.counters["nodes"] = double(sys.node_count());
}
BENCHMARK(BM_SteadySolve_DenseCholesky)->Arg(1)->Arg(2);

void BM_SteadySolve_Cg(benchmark::State& state) {
  auto sys = make_system(std::size_t(state.range(0)));
  const auto a = sys.system_matrix(4.0);
  const auto b = sys.rhs(4.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::conjugate_gradient(a, b, 10000));
  }
  state.counters["nodes"] = double(sys.node_count());
}
BENCHMARK(BM_SteadySolve_Cg)->Arg(1)->Arg(2)->Arg(3);

void BM_RunawayLimit_Sparse(benchmark::State& state) {
  auto sys = make_system(std::size_t(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(tec::runaway_limit(sys));
  }
  state.counters["nodes"] = double(sys.node_count());
}
BENCHMARK(BM_RunawayLimit_Sparse)->Arg(1)->Arg(2);

void BM_RunawayLimit_DenseBisect(benchmark::State& state) {
  auto sys = make_system(std::size_t(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench::dense_runaway_limit(sys));
  }
  state.counters["nodes"] = double(sys.node_count());
}
BENCHMARK(BM_RunawayLimit_DenseBisect)->Arg(1);

void BM_FullDesign_Alpha(benchmark::State& state) {
  static const auto powers = bench::worst_case_map(floorplan::alpha21364());
  for (auto _ : state) {
    core::DesignRequest req;
    req.tile_powers = powers;
    req.run_full_cover = false;
    benchmark::DoNotOptimize(core::design_cooling_system(req));
  }
}
BENCHMARK(BM_FullDesign_Alpha)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
