#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>

#include "floorplan/alpha21364.h"
#include "floorplan/random_chip.h"
#include "power/workload.h"
#include "tec/electro_thermal.h"

namespace perfbench {

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

Rng::Rng(std::uint64_t seed, std::uint64_t stream)
    : state_(seed * 0x9e3779b97f4a7c15ull ^ (stream + 1) * 0xd1b54a32d192ed03ull) {}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * (double(next() >> 11) * 0x1.0p-53);
}

std::size_t Rng::below(std::size_t n) { return std::size_t(next() % n); }

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  for (std::size_t i = n; i > 1; --i) std::swap(p[i - 1], p[below(i)]);
  return p;
}

double percentile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return tfc::obs::Histogram::percentile(values, q);
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string table1_chip_name(std::size_t k) {
  return k == 0 ? "alpha" : "hc" + std::to_string(k);
}

tfc::floorplan::Floorplan table1_floorplan(std::size_t k) {
  return k == 0 ? tfc::floorplan::alpha21364() : tfc::floorplan::hypothetical_chip(k);
}

tfc::linalg::Vector worst_case_powers(const tfc::floorplan::Floorplan& plan) {
  tfc::power::WorkloadSynthesizer synth(plan);
  return tfc::power::worst_case_profile(plan, synth.synthesize_suite(8)).tile_powers();
}

Fill factor_fill(const tfc::tec::ElectroThermalSystem& system) {
  Fill f;
  f.nnz = double(system.cholesky_symbolic().factor_nnz());
  const double lower = double(system.matrix_g().values().size() + system.node_count()) / 2.0;
  f.ratio = f.nnz / lower;
  return f;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double host_reference_ms() {
  // 1 MiB fits the per-core L2 of the reference host: the kernel then feels
  // the same cache contention from co-tenants as the 12x12 workloads do.
  std::vector<double> v(1 << 17, 0.0);
  std::vector<double> times;
  volatile double sink = 0.0;
  for (int rep = 0; rep < 11; ++rep) {
    const auto t0 = Clock::now();
    std::uint64_t x = 88172645463325252ull;
    double acc = 0.0;
    for (int r = 0; r < 20; ++r) {
      for (double& e : v) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        e = e * 0.999 + double(x >> 40) * 1e-9;
        acc += e;
      }
    }
    sink = sink + acc;
    times.push_back(ms_since(t0));
  }
  return percentile(times, 50.0);
}

SpanLog& SpanLog::global() {
  static SpanLog log;
  return log;
}

namespace {

int thread_number() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1);
  return id;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

thread_local std::int64_t t_current_span = -1;

}  // namespace

std::int64_t SpanLog::open(const char* name, std::uint64_t op, std::int64_t parent) {
  SpanRecord rec;
  rec.name = name;
  rec.start_ns = now_ns();
  rec.parent = parent;
  rec.op = op;
  rec.thread = thread_number();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(rec);
  return std::int64_t(spans_.size()) - 1;
}

void SpanLog::close(std::int64_t index) {
  const std::int64_t end = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[std::size_t(index)].end_ns = end;
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  const std::int64_t epoch = spans_.empty() ? 0 : spans_.front().start_ns;
  char line[256];
  for (const SpanRecord& s : spans_) {
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,\"parent\":%lld,"
                  "\"op\":%llu,\"thread\":%d}\n",
                  s.name, double(s.start_ns - epoch) / 1e3, double(s.end_ns - epoch) / 1e3,
                  static_cast<long long>(s.parent), static_cast<unsigned long long>(s.op),
                  s.thread);
    out << line;
  }
  return bool(out);
}

BenchSpan::BenchSpan(const char* name, std::uint64_t op) {
  SpanLog& log = SpanLog::global();
  if (!log.enabled()) return;
  parent_ = t_current_span;
  index_ = log.open(name, op, parent_);
  t_current_span = index_;
  prof_.emplace(name);
}

BenchSpan::~BenchSpan() {
  if (index_ < 0) return;
  prof_.reset();
  SpanLog::global().close(index_);
  t_current_span = parent_;
}

PhaseResult run_closed_loop(const char* workload, const Budget& budget,
                            const std::function<OpOutcome(std::size_t)>& op,
                            const std::function<std::string(std::size_t)>& describe) {
  PhaseResult res;
  const auto t0 = Clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(budget.seconds));
  for (std::size_t k = 0;; ++k) {
    if (budget.ops > 0 ? k >= budget.ops : (k > 0 && Clock::now() >= deadline)) break;
    ++res.attempted;
    OpOutcome out;
    try {
      out = op(k);
    } catch (const std::exception& e) {
      out.error = std::string("threw: ") + e.what();
    }
    if (out.error.empty()) {
      res.latencies_ms.push_back(out.ms);
    } else {
      ++res.failed;
      std::fprintf(stderr, "perfbench: %s op %zu failed [%s]: %s\n", workload, k,
                   describe(k).c_str(), out.error.c_str());
    }
  }
  res.wall_s = ms_since(t0) / 1e3;
  return res;
}

tfc::obs::prof::NameStat TraceWindow::stat(const std::string& name) const {
  for (const auto& s : by_name) {
    if (s.name == name) return s;
  }
  tfc::obs::prof::NameStat none;
  none.name = name;
  return none;
}

std::uint64_t TraceWindow::counter(const std::string& name) const {
  for (const auto& [key, value] : registry.counters) {
    if (key == name) return value;
  }
  return 0;
}

}  // namespace perfbench
