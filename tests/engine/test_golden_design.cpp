/// Design goldens: `tfcool design --json` must be byte-identical to the
/// committed fixtures — alpha21364 and hc3 without full cover, and all 11
/// Table-1 chips with full cover — and stay byte-identical across every
/// --backend and across thread counts. The design probe path is pinned to
/// the direct sparse Cholesky refactorization precisely so the backend
/// choice cannot perturb this output. The sparse λ_m of the golden
/// deployments is checked against dense bisection on the exact Schur-reduced
/// pencil. The paper's package itself is pinned by a content hash of its
/// assembled network at two deployments.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli/cli.h"
#include "core/chip.h"
#include "engine/solve_context.h"
#include "io/design_json.h"
#include "io/json.h"
#include "linalg/eigen.h"
#include "par/thread_pool.h"
#include "tec/device.h"
#include "tec/runaway.h"
#include "thermal/package_model.h"

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
  const std::string path = "engine_golden_tmp.json";
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

TEST(EngineGolden, ByteIdenticalAcrossBackends) {
  const std::string golden = fixture("golden_design_alpha.json");
  ASSERT_FALSE(golden.empty());
  for (const char* backend : {"cholesky", "cg"}) {
    EXPECT_EQ(design_json({"--chip", "alpha", "--backend", backend}), golden)
        << backend;
  }
}

TEST(EngineGolden, ByteIdenticalAcrossThreadCounts) {
  const std::string golden = fixture("golden_design_hc3.json");
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(design_json({"--chip", "hc3", "--threads", "1"}), golden);
  EXPECT_EQ(design_json({"--chip", "hc3", "--threads", "8"}), golden);
}

TEST(EngineGolden, ByteIdenticalAcrossBackendThreadMatrix) {
  const std::string golden = fixture("golden_design_alpha.json");
  ASSERT_FALSE(golden.empty());
  for (const char* backend : {"cg"}) {
    for (const char* threads : {"1", "8"}) {
      EXPECT_EQ(design_json({"--chip", "alpha", "--backend", backend,
                             "--threads", threads}),
                golden)
          << backend << " threads=" << threads;
    }
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

}  // namespace
}  // namespace tfc
