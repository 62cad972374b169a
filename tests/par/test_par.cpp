#include "par/parallel.h"
#include "par/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace tfc::par {
namespace {

/// Restores the default global pool sizing when a test overrides it.
struct GlobalThreadsGuard {
  ~GlobalThreadsGuard() { ThreadPool::set_global_threads(0); }
};

TEST(ThreadPool, StartupAndShutdown) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<std::size_t> count{0};
  const std::function<void(std::size_t)> fn = [&](std::size_t) { ++count; };
  pool.run_indexed(1000, fn);
  EXPECT_EQ(count.load(), 1000u);
  // Destructor joins all workers; a hang here trips the ctest TIMEOUT.
}

TEST(ThreadPool, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  std::size_t count = 0;
  const std::function<void(std::size_t)> fn = [&](std::size_t) { ++count; };
  pool.run_indexed(10, fn);
  EXPECT_EQ(count, 10u);
}

TEST(ThreadPool, ManyJobsReuseTheSameWorkers) {
  ThreadPool pool(3);
  std::atomic<std::size_t> total{0};
  const std::function<void(std::size_t)> fn = [&](std::size_t) { ++total; };
  for (int job = 0; job < 50; ++job) pool.run_indexed(17, fn);
  EXPECT_EQ(total.load(), 50u * 17u);
}

TEST(ThreadPool, EmptyRangeIsANoOp) {
  ThreadPool pool(2);
  const std::function<void(std::size_t)> fn = [](std::size_t) {
    FAIL() << "must not be called";
  };
  pool.run_indexed(0, fn);
}

TEST(ThreadPool, GlobalSizeOverride) {
  GlobalThreadsGuard guard;
  ThreadPool::set_global_threads(5);
  EXPECT_EQ(ThreadPool::global_thread_count(), 5u);
  EXPECT_EQ(ThreadPool::global().size(), 5u);
  ThreadPool::set_global_threads(2);
  EXPECT_EQ(ThreadPool::global().size(), 2u);
}

/// Thread counts are bounded: an override above the ceiling is refused
/// before any thread starts, and an environment value above it is ignored
/// like a malformed one.
TEST(ThreadPool, ThreadCountIsBounded) {
  GlobalThreadsGuard guard;
  ThreadPool::set_global_threads(2);
  EXPECT_THROW(ThreadPool::set_global_threads(kMaxThreads + 1), std::invalid_argument);
  EXPECT_EQ(ThreadPool::global_thread_count(), 2u);

  const char* saved = std::getenv("TFCOOL_THREADS");
  const std::string saved_value = saved != nullptr ? saved : "";
  ::setenv("TFCOOL_THREADS", std::to_string(kMaxThreads + 1).c_str(), 1);
  ThreadPool::set_global_threads(0);
  EXPECT_LE(ThreadPool::global_thread_count(), kMaxThreads);
  ::setenv("TFCOOL_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::global_thread_count(), 3u);
  if (saved != nullptr) {
    ::setenv("TFCOOL_THREADS", saved_value.c_str(), 1);
  } else {
    ::unsetenv("TFCOOL_THREADS");
  }
}

TEST(ParallelMap, ResultsAreInIterationOrder) {
  GlobalThreadsGuard guard;
  ThreadPool::set_global_threads(8);
  const auto squares =
      parallel_map(1000, [](std::size_t i) { return double(i) * double(i); });
  ASSERT_EQ(squares.size(), 1000u);
  for (std::size_t i = 0; i < squares.size(); ++i) {
    EXPECT_EQ(squares[i], double(i) * double(i)) << i;
  }
}

TEST(ParallelMap, SameResultForAnyPoolSize) {
  GlobalThreadsGuard guard;
  ThreadPool::set_global_threads(1);
  const auto serial = parallel_map(257, [](std::size_t i) { return 3 * i + 1; });
  ThreadPool::set_global_threads(8);
  const auto parallel = parallel_map(257, [](std::size_t i) { return 3 * i + 1; });
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelMap, SupportsMoveOnlyResults) {
  GlobalThreadsGuard guard;
  ThreadPool::set_global_threads(4);
  auto boxes =
      parallel_map(64, [](std::size_t i) { return std::make_unique<std::size_t>(i); });
  for (std::size_t i = 0; i < boxes.size(); ++i) EXPECT_EQ(*boxes[i], i);
}

TEST(ParallelFor, LowestIndexExceptionWins) {
  GlobalThreadsGuard guard;
  ThreadPool::set_global_threads(8);
  std::atomic<std::size_t> executed{0};
  try {
    parallel_for(100, [&](std::size_t i) {
      ++executed;
      if (i % 7 == 3) throw std::runtime_error("boom " + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 3");  // lowest failing index, any pool size
  }
  // All iterations still ran to completion.
  EXPECT_EQ(executed.load(), 100u);
}

TEST(ParallelFor, SerialPathKeepsSameExceptionContract) {
  GlobalThreadsGuard guard;
  ThreadPool::set_global_threads(1);
  try {
    parallel_for(100, [&](std::size_t i) {
      if (i % 7 == 3) throw std::runtime_error("boom " + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 3");
  }
}

TEST(ParallelFor, NestedSubmissionDoesNotDeadlock) {
  GlobalThreadsGuard guard;
  ThreadPool::set_global_threads(4);
  constexpr std::size_t kOuter = 16, kInner = 16;
  std::vector<int> out(kOuter * kInner, -1);
  parallel_for(kOuter, [&](std::size_t i) {
    // Inner ranges run inline on pool workers (the deadlock guard) and as a
    // normal nested job on the submitting thread; both must complete.
    parallel_for(kInner, [&](std::size_t j) { out[i * kInner + j] = int(i + j); });
  });
  for (std::size_t i = 0; i < kOuter; ++i) {
    for (std::size_t j = 0; j < kInner; ++j) {
      EXPECT_EQ(out[i * kInner + j], int(i + j));
    }
  }
}

TEST(ParallelFor, InWorkerFlagIsVisibleInsideTasks) {
  GlobalThreadsGuard guard;
  EXPECT_FALSE(ThreadPool::in_worker());
  ThreadPool::set_global_threads(4);
  std::atomic<std::size_t> on_workers{0};
  parallel_for(64, [&](std::size_t) {
    if (ThreadPool::in_worker()) ++on_workers;
  });
  // The submitting thread drains too, so not all 64 need be on workers; the
  // flag itself must still be false here afterwards.
  EXPECT_FALSE(ThreadPool::in_worker());
  EXPECT_LE(on_workers.load(), 64u);
}

TEST(ParallelFor, ReductionInIndexOrderIsDeterministic) {
  GlobalThreadsGuard guard;
  ThreadPool::set_global_threads(8);
  // Canonical deterministic-reduction pattern: map into slots, reduce in
  // index order afterwards. FP summation order is then fixed by construction.
  const auto terms = parallel_map(10000, [](std::size_t i) {
    return 1.0 / double(i + 1);
  });
  const double sum1 = std::accumulate(terms.begin(), terms.end(), 0.0);
  ThreadPool::set_global_threads(3);
  const auto terms2 = parallel_map(10000, [](std::size_t i) {
    return 1.0 / double(i + 1);
  });
  const double sum2 = std::accumulate(terms2.begin(), terms2.end(), 0.0);
  EXPECT_EQ(sum1, sum2);  // bitwise equal, not just approximately
}

}  // namespace
}  // namespace tfc::par
