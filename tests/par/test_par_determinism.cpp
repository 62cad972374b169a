/// End-to-end determinism: the full design pipeline must emit byte-identical
/// JSON for any --threads value. This is the contract that makes the
/// parallel layer safe to enable by default.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/cli.h"
#include "par/thread_pool.h"

namespace tfc {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string design_json(const std::string& threads, const std::string& path) {
  std::ostringstream out, err;
  const int code = cli::run_cli(
      {"design", "--chip", "alpha", "--threads", threads, "--json", path}, out, err);
  EXPECT_EQ(code, 0) << err.str();
  return slurp(path);
}

TEST(ParDeterminism, DesignJsonIsByteIdenticalAcrossThreadCounts) {
  const std::string f1 = "design_threads1.json";
  const std::string f8 = "design_threads8.json";
  const std::string one = design_json("1", f1);
  const std::string eight = design_json("8", f8);
  std::remove(f1.c_str());
  std::remove(f8.c_str());
  par::ThreadPool::set_global_threads(0);

  ASSERT_FALSE(one.empty());
  EXPECT_EQ(one, eight);
}

TEST(ParDeterminism, DesignJsonMatchesAFourThreadRun) {
  // Every engine point solve is the direct factorization; what is left of
  // the backend × thread matrix is the thread axis against a 4-thread run.
  const std::string f = "design_backend.json";
  const std::string reference = design_json("4", f);
  for (const char* threads : {"1", "8"}) {
    EXPECT_EQ(design_json(threads, f), reference) << "threads=" << threads;
  }
  std::remove(f.c_str());
  par::ThreadPool::set_global_threads(0);

  ASSERT_FALSE(reference.empty());
}

}  // namespace
}  // namespace tfc
