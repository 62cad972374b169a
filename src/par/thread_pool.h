/// \file thread_pool.h
/// \brief Fixed-size thread pool underlying tfc::par::parallel_for /
/// parallel_map.
///
/// Deliberately work-stealing-free: one shared queue of *jobs* (an atomic
/// index range drained cooperatively by the workers and the submitting
/// thread), so scheduling stays simple to reason about and data-race-free
/// under TSan. Results are always deterministic because callers index their
/// output by iteration number, never by completion order.
///
/// The process-wide pool is created lazily; its size resolves, in order,
/// from `set_global_threads()` (the CLI's `--threads`), the
/// `TFCOOL_THREADS` environment variable, and `hardware_concurrency()`, and
/// never exceeds kMaxThreads.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace tfc::par {

/// Ceiling on the process-wide pool size and on the service's worker count.
inline constexpr std::size_t kMaxThreads = 256;

/// Fixed pool of worker threads executing indexed jobs.
class ThreadPool {
 public:
  /// Spawn `threads` workers (0 is clamped to 1). A pool of size 1 never
  /// spawns: every run executes inline on the submitting thread.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of threads that may execute work concurrently (workers plus the
  /// submitting thread counts as one of them).
  std::size_t size() const { return size_; }

  /// Execute fn(i) for every i in [0, n). The calling thread participates in
  /// draining the index range. Blocks until all n iterations completed. If
  /// any iteration throws, the exception raised by the *lowest* iteration
  /// index is rethrown on the caller (deterministic regardless of thread
  /// count); remaining iterations still run to completion.
  ///
  /// Nested-submission guard: when called from inside a pool worker, the
  /// whole range runs inline on that worker — never deadlocks, still
  /// correct, still deterministic.
  void run_indexed(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// True when the calling thread is one of this process's pool workers.
  static bool in_worker();

  /// The process-wide pool (lazily created).
  static ThreadPool& global();

  /// Override the global pool size (0 = resolve from env/hardware again).
  /// If the global pool already exists with a different size it is joined
  /// and recreated. Must not race with in-flight parallel work. Throws
  /// std::invalid_argument, changing nothing, for more than kMaxThreads.
  static void set_global_threads(std::size_t threads);

  /// The size the global pool has (or would be created with).
  static std::size_t global_thread_count();

 private:
  struct Job {
    std::size_t n = 0;
    const std::function<void(std::size_t)>* fn = nullptr;
    std::atomic<std::size_t> next{0};
    std::size_t done = 0;  // guarded by mutex
    std::exception_ptr error;       // guarded by mutex
    std::size_t error_index = 0;    // guarded by mutex
    std::mutex mutex;
    std::condition_variable all_done;
  };

  void worker_loop();
  static void drain(Job& job);

  std::size_t size_ = 1;
  std::vector<std::thread> workers_;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  // Shared ownership: a worker may still hold a reference to a job the
  // submitter has already finished waiting on.
  std::vector<std::shared_ptr<Job>> queue_;
  bool stopping_ = false;
};

}  // namespace tfc::par
