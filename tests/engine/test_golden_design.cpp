/// Design goldens: `tfcool design --json` must be byte-identical to the
/// committed fixtures — alpha21364 and hc3 without full cover, and all 11
/// Table-1 chips with full cover — and stay byte-identical across thread
/// counts. The sparse λ_m of the golden
/// deployments is checked against dense bisection on the exact Schur-reduced
/// pencil. The paper's package itself is pinned by a content hash of its
/// assembled network at two deployments. The approximate minimum degree
/// fill of those pencils and the evaluation count of the current search on
/// the golden deployments are pinned exactly, and the built-in chips' power
/// maps against their synthesized benchmark suites.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "cli/cli.h"
#include "core/chip.h"
#include "core/current_optimizer.h"
#include "engine/solve_context.h"
#include "io/design_json.h"
#include "io/json.h"
#include "linalg/eigen.h"
#include "obs/metrics.h"
#include "power/workload.h"
#include "par/thread_pool.h"
#include "tec/device.h"
#include "tec/runaway.h"
#include "thermal/package_model.h"
#include "thermal/stack_spec.h"

namespace tfc {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string design_json(const std::vector<std::string>& extra_args,
                        bool full_cover = false) {
  // Per process: ctest runs the discovered tests concurrently in one
  // directory.
  const std::string path = "engine_golden_tmp_" + std::to_string(::getpid()) + ".json";
  std::vector<std::string> args = {"design", "--json", path};
  if (!full_cover) args.push_back("--no-full-cover");
  args.insert(args.end(), extra_args.begin(), extra_args.end());
  std::ostringstream out, err;
  const int code = cli::run_cli(args, out, err);
  EXPECT_EQ(code, 0) << err.str();
  const std::string text = slurp(path);
  std::remove(path.c_str());
  par::ThreadPool::set_global_threads(0);
  return text;
}

std::string fixture(const std::string& name) {
  return slurp(std::string(TFC_TEST_DATA_DIR) + "/" + name);
}

TEST(EngineGolden, AlphaDesignJsonMatchesPreEngineFixture) {
  const std::string golden = fixture("golden_design_alpha.json");
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(design_json({"--chip", "alpha"}), golden);
}

TEST(EngineGolden, Hc3DesignJsonMatchesPreEngineFixture) {
  const std::string golden = fixture("golden_design_hc3.json");
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(design_json({"--chip", "hc3"}), golden);
}

TEST(EngineGolden, ByteIdenticalAcrossThreadCounts) {
  const std::string golden = fixture("golden_design_hc3.json");
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(design_json({"--chip", "hc3", "--threads", "1"}), golden);
  EXPECT_EQ(design_json({"--chip", "hc3", "--threads", "8"}), golden);
}

TEST(EngineGolden, AlphaGoldenAtOneAndEightThreads) {
  // Every point solve is the direct factorization, so the matrix has only
  // its thread axis left: the alpha golden at 1 and 8 threads.
  const std::string golden = fixture("golden_design_alpha.json");
  ASSERT_FALSE(golden.empty());
  for (const char* threads : {"1", "8"}) {
    EXPECT_EQ(design_json({"--chip", "alpha", "--threads", threads}), golden)
        << "threads=" << threads;
  }
}

class FullCoverGolden : public ::testing::TestWithParam<const char*> {};

TEST_P(FullCoverGolden, DesignJsonMatchesFixture) {
  const std::string chip = GetParam();
  const std::string golden = fixture("golden_design_full_cover_" + chip + ".json");
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(design_json({"--chip", chip}, /*full_cover=*/true), golden);
}

INSTANTIATE_TEST_SUITE_P(Table1, FullCoverGolden,
                         ::testing::Values("alpha", "hc1", "hc2", "hc3", "hc4", "hc5",
                                           "hc6", "hc7", "hc8", "hc9", "hc10"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

/// Dense bisection on the exact Schur-reduced pencil (S₀, D_T): the λ_m
/// oracle for deployment \p mask of built-in chip \p chip.
double schur_oracle(const core::Chip& chip, const TileMask& mask) {
  const auto system = tec::ElectroThermalSystem::assemble(
      chip.spec, mask, chip.tile_powers, tec::TecDeviceParams::chowdhury_superlattice());
  const tec::SchurReduction red = tec::schur_reduction(system);
  linalg::PencilBisectionOptions opts;
  opts.rel_tol = 1e-12;
  const auto lm = linalg::pencil_smallest_positive_eigenvalue(
      red.s0, linalg::DenseMatrix::diagonal(red.d_diag), opts);
  EXPECT_TRUE(lm.has_value());
  return lm.value_or(0.0);
}

double sparse_lambda(const core::Chip& chip, const TileMask& mask) {
  const auto lm = engine::SolveContext(chip.spec, mask, chip.tile_powers,
                                       tec::TecDeviceParams::chowdhury_superlattice())
                      .runaway_limit();
  EXPECT_TRUE(lm.has_value());
  return lm.value_or(0.0);
}

/// The sparse λ_m of every Table-1 golden deployment matches the oracle.
class RunawayOracle : public ::testing::TestWithParam<const char*> {};

TEST_P(RunawayOracle, SparseMatchesSchurPencilBisection) {
  const std::string name = GetParam();
  const auto golden =
      io::design_result_from_json(fixture("golden_design_full_cover_" + name + ".json"));
  ASSERT_FALSE(golden.deployment.empty());
  const core::Chip chip = core::builtin_chip(name);
  const double oracle = schur_oracle(chip, golden.deployment);
  EXPECT_NEAR(sparse_lambda(chip, golden.deployment), oracle, 1e-8 * oracle);
}

INSTANTIATE_TEST_SUITE_P(Table1, RunawayOracle,
                         ::testing::Values("alpha", "hc1", "hc2", "hc3", "hc4", "hc5",
                                           "hc6", "hc7", "hc8", "hc9", "hc10"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

/// A built-in chip's power map is the worst case of its synthesized
/// eight-benchmark suite, bit for bit (every unit reaches full activity).
class BuiltinChip : public ::testing::TestWithParam<const char*> {};

TEST_P(BuiltinChip, MapIsTheSynthesizedSuitesWorstCase) {
  const core::Chip chip = core::builtin_chip(GetParam());
  const power::WorkloadSynthesizer synth(*chip.plan);
  EXPECT_EQ(chip.tile_powers,
            power::worst_case_profile(*chip.plan, synth.synthesize_suite(8)).tile_powers());
}

INSTANTIATE_TEST_SUITE_P(Table1, BuiltinChip,
                         ::testing::Values("alpha", "hc1", "hc2", "hc3", "hc4", "hc5",
                                           "hc6", "hc7", "hc8", "hc9", "hc10", "hc99"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

TEST(SparseRunaway, MatchesOracleOnRelaxedLimitDesigns) {
  // Deployments on which a K-image carried by recurrence drifts far enough to
  // stop the Lanczos early on a spurious Ritz value.
  const std::vector<std::pair<const char*, double>> cases = {
      {"hc1", 87.0}, {"hc5", 80.0}, {"hc5", 81.0}};
  for (const auto& [name, limit] : cases) {
    const core::Chip chip = core::builtin_chip(name);
    const core::DesignResult design = core::design_with_fallback(chip, limit, false);
    ASSERT_FALSE(design.deployment.empty()) << name << " @ " << limit;
    const double oracle = schur_oracle(chip, design.deployment);
    EXPECT_NEAR(sparse_lambda(chip, design.deployment), oracle, 1e-8 * oracle)
        << name << " @ " << limit;
  }
}

TEST(SparseRunaway, DesignAndSolveContextAgreeBitwise) {
  // One deployment, one λ_m: the design's and a fresh context's.
  for (const char* name : {"alpha", "hc3", "hc7"}) {
    const core::Chip chip = core::builtin_chip(name);
    const core::DesignResult design = core::design_with_fallback(chip, 85.0, false);
    ASSERT_TRUE(design.lambda_m.has_value()) << name;
    EXPECT_EQ(*design.lambda_m, sparse_lambda(chip, design.deployment)) << name;
  }
}

TEST(SparseRunaway, AlphaGoldenDeploymentsCertifyAtTheNearShift) {
  // The near-λ_m factorization certifies minimality by itself on Alpha's
  // golden greedy deployment and on full cover: no fallback to the
  // single-phase solve, whose own certificate, G − (1 − 1e-8)·λ·D positive
  // definite, still holds.
  const core::Chip chip = core::builtin_chip("alpha");
  const auto golden = io::design_result_from_json(fixture("golden_design_alpha.json"));
  auto& fallbacks =
      obs::MetricsRegistry::global().counter("linalg.lanczos.near_shift_fallbacks");
  for (const TileMask& mask : {golden.deployment, TileMask::full(12, 12)}) {
    const std::uint64_t before = fallbacks.value();
    const engine::SolveContext context(chip.spec, mask, chip.tile_powers,
                                       tec::TecDeviceParams::chowdhury_superlattice());
    const auto lm = context.runaway_limit();
    ASSERT_TRUE(lm.has_value()) << mask.count() << " TECs";
    EXPECT_EQ(fallbacks.value(), before) << mask.count() << " TECs";
    tec::SolveWorkspace ws;
    EXPECT_TRUE(context.system().factorize_into((1.0 - 1e-8) * *lm, ws))
        << mask.count() << " TECs";
  }
}

/// FNV-1a over the assembled network: G's CSR arrays, the ambient legs, the
/// node capacitances and the TEC cold/hot node lists (native byte order).
std::string package_hash(const thermal::PackageModel& m) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto bytes = [&](const void* data, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ull;
    }
  };
  const auto vec = [&](const auto& v) { bytes(v.data(), v.size() * sizeof(v[0])); };
  const linalg::SparseMatrix g = m.network().conductance_matrix();
  vec(g.row_ptr());
  vec(g.col_idx());
  vec(g.values());
  std::vector<double> ambient(m.node_count()), capacitance(m.node_count());
  for (std::size_t i = 0; i < m.node_count(); ++i) {
    ambient[i] = m.network().ambient_conductance(i);
    capacitance[i] = m.network().node(i).capacitance;
  }
  vec(ambient);
  vec(capacitance);
  vec(m.cold_nodes());
  vec(m.hot_nodes());
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

/// The paper's package at \p deployment, as every design builds it.
thermal::PackageModel paper_model(const TileMask& deployment) {
  return thermal::PackageModel::build(
      thermal::paper_package(), deployment,
      tec::TecDeviceParams::chowdhury_superlattice().thermal_link());
}

TEST(PaperPackageHash, AlphaGoldenDeployment) {
  const io::JsonValue pinned = io::parse_json(fixture("paper_package_hash.json"));
  const auto design = io::design_result_from_json(fixture("golden_design_alpha.json"));
  ASSERT_EQ(design.deployment.count(), 11u);
  EXPECT_EQ(package_hash(paper_model(design.deployment)),
            pinned.at("alpha_golden_deployment").as_string());
}

TEST(PaperPackageHash, FullCover) {
  const io::JsonValue pinned = io::parse_json(fixture("paper_package_hash.json"));
  EXPECT_EQ(package_hash(paper_model(TileMask::full(12, 12))),
            pinned.at("full_cover").as_string());
}

/// nnz(L) of the shared symbolic analysis of \p chip's pencil at \p mask.
std::size_t pencil_nnz(const core::Chip& chip, const TileMask& mask) {
  return engine::SolveContext(chip.spec, mask, chip.tile_powers,
                              tec::TecDeviceParams::chowdhury_superlattice())
      .system()
      .cholesky_symbolic()
      .factor_nnz();
}

TEST(AmdFill, AlphaGoldenDeployment) {
  // The clique-forming minimum degree this ordering replaced gave 12,895
  // here, reverse Cuthill–McKee 33,966.
  const auto design = io::design_result_from_json(fixture("golden_design_alpha.json"));
  const std::size_t nnz = pencil_nnz(core::builtin_chip("alpha"), design.deployment);
  EXPECT_LE(double(nnz), 1.10 * 12895.0);
  EXPECT_EQ(nnz, 12510u);
}

TEST(AmdFill, FullCover) {
  // Clique-forming minimum degree: 8,994; reverse Cuthill–McKee: 60,147.
  const std::size_t nnz = pencil_nnz(core::builtin_chip("alpha"), TileMask::full(12, 12));
  EXPECT_LE(double(nnz), 1.10 * 8994.0);
  EXPECT_EQ(nnz, 8589u);
}

TEST(AmdFill, SingleDie100x100WithCentredBlock) {
  // Reverse Cuthill–McKee filled this pencil to 18,301,992 entries.
  thermal::PackageGeometry g;
  g.tile_rows = g.tile_cols = 100;
  const auto spec =
      std::make_shared<const thermal::StackSpec>(thermal::StackSpec::single_die(g));
  TileMask block(spec->total_tile_rows(), spec->tile_cols());
  for (std::size_t r = 48; r < 52; ++r) {
    for (std::size_t c = 48; c < 52; ++c) block.set(r, c);
  }
  const auto system = tec::ElectroThermalSystem::assemble(
      spec, block, spec->tile_powers(), tec::TecDeviceParams::chowdhury_superlattice());
  const std::size_t nnz = system.cholesky_symbolic().factor_nnz();
  EXPECT_LE(nnz, 4500000u);
  EXPECT_EQ(nnz, 2954519u);
}

TEST(AmdFill, DesignRecordsOneFillSamplePerAnalysis) {
  auto& metrics = obs::MetricsRegistry::global();
  const auto count = [&](const char* name) {
    return metrics.histogram(name).summary().count;
  };
  const std::uint64_t analyses0 = count("cholesky.sparse.analyze_ms");
  const std::uint64_t nnz0 = count("cholesky.sparse.factor_nnz");
  const std::uint64_t fill0 = count("cholesky.sparse.fill_ratio");
  (void)core::design_with_fallback(core::builtin_chip("alpha"), 85.0, true);
  const std::uint64_t analyses = count("cholesky.sparse.analyze_ms") - analyses0;
  EXPECT_GE(analyses, 2u);  // greedy pass(es) + full cover
  EXPECT_EQ(count("cholesky.sparse.factor_nnz") - nnz0, analyses);
  EXPECT_EQ(count("cholesky.sparse.fill_ratio") - fill0, analyses);
}

/// The current search on each full-cover golden deployment: the plain
/// bisection on the sign of dθ/di takes ⌈log2(0.999·λ_m / kCurrentTol)⌉ = 21
/// probes (every golden λ_m lies in (105.0, 209.9] A) plus the final
/// operating-point solve; bracketing then replaying it takes the exact counts
/// below for the same current.
class CurrentBisection : public ::testing::TestWithParam<const char*> {};

const std::map<std::string, std::size_t> kGoldenEvaluations = {
    {"alpha", 10}, {"hc1", 6}, {"hc2", 6},  {"hc3", 11}, {"hc4", 6},  {"hc5", 11},
    {"hc6", 9},    {"hc7", 10}, {"hc8", 9}, {"hc9", 6},  {"hc10", 10}};

TEST_P(CurrentBisection, GoldenDeploymentTakesAtMost22Evaluations) {
  const std::string name = GetParam();
  const auto golden =
      io::design_result_from_json(fixture("golden_design_full_cover_" + name + ".json"));
  const core::Chip chip = core::builtin_chip(name);
  const engine::SolveContext context(chip.spec, golden.deployment, chip.tile_powers,
                                     tec::TecDeviceParams::chowdhury_superlattice());
  const core::CurrentOptimum opt = core::optimize_current(context);
  EXPECT_TRUE(opt.converged);
  EXPECT_LE(opt.objective_evaluations, 22u);
  EXPECT_EQ(opt.objective_evaluations, kGoldenEvaluations.at(name));
}

INSTANTIATE_TEST_SUITE_P(Table1, CurrentBisection,
                         ::testing::Values("alpha", "hc1", "hc2", "hc3", "hc4", "hc5",
                                           "hc6", "hc7", "hc8", "hc9", "hc10"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace tfc
