#include "par/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace tfc::par {

namespace {

thread_local bool t_in_worker = false;

std::mutex g_global_mutex;
std::unique_ptr<ThreadPool> g_global_pool;
std::size_t g_thread_override = 0;  // 0 = resolve from env / hardware

std::size_t resolve_thread_count() {
  if (g_thread_override > 0) return g_thread_override;
  if (const char* env = std::getenv("TFCOOL_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v > 0 && std::size_t(v) <= kMaxThreads) {
      return std::size_t(v);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? std::min(std::size_t(hw), kMaxThreads) : 1;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) : size_(std::max<std::size_t>(1, threads)) {
  obs::MetricsRegistry::global().gauge("par.pool_size").set(double(size_));
  workers_.reserve(size_ - 1);
  for (std::size_t k = 0; k + 1 < size_; ++k) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::in_worker() { return t_in_worker; }

void ThreadPool::drain(Job& job) {
  TFC_SPAN("par_drain");
  for (;;) {
    const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.n) return;
    std::exception_ptr err;
    try {
      (*job.fn)(i);
    } catch (...) {
      err = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(job.mutex);
    if (err && (job.error == nullptr || i < job.error_index)) {
      job.error = err;
      job.error_index = i;
    }
    if (++job.done == job.n) job.all_done.notify_all();
  }
}

void ThreadPool::worker_loop() {
  t_in_worker = true;
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      job = queue_.front();  // stays queued so other workers can join in
    }
    drain(*job);
    // Exhausted: retire the job so sleeping workers do not respin on it.
    std::lock_guard<std::mutex> lock(queue_mutex_);
    queue_.erase(std::remove(queue_.begin(), queue_.end(), job), queue_.end());
  }
}

void ThreadPool::run_indexed(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  auto& metrics = obs::MetricsRegistry::global();
  metrics.counter("par.tasks").increment(n);

  // Serial paths: pool of one, single task, or nested submission from a
  // worker (running inline instead of re-queuing is the deadlock guard).
  if (size_ == 1 || n == 1 || in_worker()) {
    std::exception_ptr error;
    for (std::size_t i = 0; i < n; ++i) {
      try {
        fn(i);
      } catch (...) {
        // Keep the lowest-index exception, matching the parallel path.
        if (error == nullptr) error = std::current_exception();
      }
    }
    if (error != nullptr) std::rethrow_exception(error);
    return;
  }

  TFC_SPAN("parallel_for");
  metrics.counter("par.parallel_regions").increment();
  auto job = std::make_shared<Job>();
  job->n = n;
  job->fn = &fn;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    queue_.push_back(job);
  }
  queue_cv_.notify_all();

  drain(*job);  // the submitting thread participates

  {
    std::unique_lock<std::mutex> lock(job->mutex);
    job->all_done.wait(lock, [&job] { return job->done == job->n; });
  }
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    queue_.erase(std::remove(queue_.begin(), queue_.end(), job), queue_.end());
  }
  if (job->error != nullptr) std::rethrow_exception(job->error);
}

ThreadPool& ThreadPool::global() {
  std::lock_guard<std::mutex> lock(g_global_mutex);
  if (!g_global_pool) {
    g_global_pool = std::make_unique<ThreadPool>(resolve_thread_count());
  }
  return *g_global_pool;
}

void ThreadPool::set_global_threads(std::size_t threads) {
  if (threads > kMaxThreads) {
    throw std::invalid_argument("thread count must be at most " +
                                std::to_string(kMaxThreads) + ", got " +
                                std::to_string(threads));
  }
  std::lock_guard<std::mutex> lock(g_global_mutex);
  g_thread_override = threads;
  const std::size_t want = std::max<std::size_t>(1, [&] {
    if (g_thread_override > 0) return g_thread_override;
    return resolve_thread_count();
  }());
  if (g_global_pool && g_global_pool->size() != want) {
    g_global_pool.reset();  // joined here; recreated lazily at next use
  }
}

std::size_t ThreadPool::global_thread_count() {
  std::lock_guard<std::mutex> lock(g_global_mutex);
  if (g_global_pool) return g_global_pool->size();
  return resolve_thread_count();
}

}  // namespace tfc::par
