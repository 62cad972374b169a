/// \file harness.h
/// \brief Shared machinery of the perfbench program: seeded input streams,
/// the closed-loop op runner, the benchmark's own spans, and the workload
/// interface main.cpp runs.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "floorplan/floorplan.h"
#include "linalg/vector.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/trace.h"

namespace tfc::tec {
class ElectroThermalSystem;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0);

/// splitmix64 stream. Inputs are drawn with this rather than <random>
/// distributions, whose output differs between standard libraries, so one
/// seed gives one input sequence everywhere.
class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t stream);
  std::uint64_t next();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n).
  std::size_t below(std::size_t n);
  /// Seeded Fisher-Yates shuffle of 0..n-1.
  std::vector<std::size_t> permutation(std::size_t n);

 private:
  std::uint64_t state_;
};

/// Linear-interpolated percentile q in [0, 100] of unsorted \p values.
double percentile(std::vector<double> values, double q);

/// 64-bit FNV-1a of \p bytes.
std::uint64_t fnv1a(const std::string& bytes);

/// Name of Table-I chip \p k as `tfcool` and the service take it: "alpha"
/// for 0, "hc<k>" for the hypothetical chips HC01-HC10.
std::string table1_chip_name(std::size_t k);
/// Floorplan of Table-I chip \p k (0 = Alpha 21364).
tfc::floorplan::Floorplan table1_floorplan(std::size_t k);
/// Worst-case tile power map of \p plan through the paper's pipeline (eight
/// synthetic benchmarks plus the 20 % margin), as `tfcool design` builds it.
tfc::linalg::Vector worst_case_powers(const tfc::floorplan::Floorplan& plan);

/// Fill of the shared symbolic Cholesky analysis of a system's G - i*D
/// pattern: nnz(L), and nnz(L) over the nonzeros of A's lower triangle.
struct Fill {
  double nnz = 0.0;
  double ratio = 0.0;
};
Fill factor_fill(const tfc::tec::ElectroThermalSystem& system);

/// Peak resident set of this process [MB].
double peak_rss_mb();

/// Median wall time [ms] of a fixed pure-compute kernel (integer hashing and
/// a multiply-add over a 1 MiB array, no I/O). Timed at the start and end of
/// every run so a slow host phase can be told apart from a slow program.
double host_reference_ms();

/// One of the benchmark's own spans: recorded around every public call it
/// makes during a traced pass.
struct SpanRecord {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index of the enclosing span, -1 at a root
  std::uint64_t op = 0;      ///< op id shared by one op's spans
  int thread = 0;
};

/// In-memory span store, written out once at exit.
class SpanLog {
 public:
  static SpanLog& global();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  std::int64_t open(const char* name, std::uint64_t op, std::int64_t parent);
  void close(std::int64_t index);
  /// JSON Lines, one span per line.
  bool write(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// RAII benchmark span. While a traced pass runs it records into SpanLog and
/// also opens an obs::Span, so the profiler tree nests the library's own
/// spans under the benchmark's calls; outside a traced pass it does nothing.
/// \p name must be a string literal.
class BenchSpan {
 public:
  BenchSpan(const char* name, std::uint64_t op);
  ~BenchSpan();
  BenchSpan(const BenchSpan&) = delete;
  BenchSpan& operator=(const BenchSpan&) = delete;

 private:
  std::int64_t index_ = -1;
  std::int64_t parent_ = -1;
  std::optional<tfc::obs::Span> prof_;
};

/// How long one closed-loop pass runs: a wall-clock budget, or (ops > 0) an
/// exact op count, which the traced pass uses so its counts repeat exactly.
struct Budget {
  double seconds = 0.0;
  std::size_t ops = 0;
};

struct PhaseResult {
  std::vector<double> latencies_ms;  ///< successful ops only
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double wall_s = 0.0;
};

/// Outcome of one op: its latency, and an empty error unless a check failed.
struct OpOutcome {
  double ms = 0.0;
  std::string error;
};

/// Run op(k) for k = 0, 1, ... on the calling thread until \p budget is
/// spent. A thrown exception or a non-empty OpOutcome::error is a failed op,
/// logged to stderr with describe(k); the run continues.
PhaseResult run_closed_loop(const char* workload, const Budget& budget,
                            const std::function<OpOutcome(std::size_t)>& op,
                            const std::function<std::string(std::size_t)>& describe);

/// Everything the traced pass measured, handed to the workload.
struct TraceWindow {
  tfc::obs::prof::ProfileSnapshot profile;
  std::vector<tfc::obs::prof::NameStat> by_name;
  tfc::obs::MetricsSnapshot registry;
  std::size_t ops = 0;

  /// Per-name profiler totals (zero when the span never ran).
  tfc::obs::prof::NameStat stat(const std::string& name) const;
  std::uint64_t counter(const std::string& name) const;
};

using MetricMap = std::map<std::string, double>;

/// One benchmark workload. main.cpp times setup() several times, then runs
/// closed-loop passes over the workload's seeded op sequence.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  /// Ops per second measured on one thread of the 4-vCPU reference host when
  /// the workload was defined; sizes the tail percentile and the traced
  /// passes, never a result.
  virtual double nominal_ops_per_s() const = 0;
  /// Ops in one balanced cycle of the input sequence.
  virtual std::size_t op_cycle() const { return 1; }

  /// Build every input and session the ops need, replacing any earlier
  /// setup. Returns an error message when a setup check fails.
  virtual std::string setup() = 0;
  /// Closed-loop ops from op 0 of the seeded sequence.
  virtual PhaseResult run(const Budget& budget) = 0;
  /// Workload-specific per-layer metrics of the last (traced) run().
  virtual void layer_metrics(const TraceWindow& window, MetricMap& out) = 0;
};

std::unique_ptr<Workload> make_design_table1(std::uint64_t seed);
std::unique_ptr<Workload> make_mesh40_solve(std::uint64_t seed);
std::unique_ptr<Workload> make_dtm_scenario(std::uint64_t seed);
std::unique_ptr<Workload> make_svc_mix(std::uint64_t seed);

}  // namespace perfbench
