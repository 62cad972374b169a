/// \file flight_recorder.h
/// \brief Ring buffer of the last N completed request records — post-hoc
/// introspection of what a long-running service actually did, without
/// turning on tracing or grepping logs.
///
/// Aggregated metrics answer "how is the service doing overall"; the flight
/// recorder answers "what were the last requests, and what did each one
/// cost" — id, method, chip, cache hit/miss, queue wait, per-stage timings
/// pulled from the request's span tree, status, latency. Recording is one
/// short mutex hold moving a small struct; memory is bounded by the
/// capacity, so a weeks-long `tfcool serve` cannot grow it.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace tfc::obs {

/// One completed request, as remembered by the recorder.
struct RequestRecord {
  /// Monotone sequence number assigned by the recorder (1-based).
  std::uint64_t seq = 0;
  /// Request id as wire text (`1`, `"abc"`, `null`).
  std::string id;
  std::string trace_id;
  std::string method;
  /// Chip key for solver methods; "" for ping/stats/metrics/recent.
  std::string chip;
  /// Declarative package identity ("name@hash") when the request addressed a
  /// StackSpec session; "" for built-in chips and non-solver methods.
  std::string spec;
  /// Session-cache outcome: -1 not applicable, 0 miss, 1 hit.
  int cache = -1;
  /// "ok" or the protocol error code name (e.g. "deadline_exceeded").
  std::string status = "ok";
  double queue_wait_ms = 0.0;
  double latency_ms = 0.0;
  /// Summed sparse_factor/sparse_refactor span time inside the request.
  double factorize_ms = 0.0;
  /// Summed et_solve span time inside the request.
  double solve_ms = 0.0;
  /// Number of numeric (re)factorizations the request performed.
  std::uint64_t factorizations = 0;
  /// Total CG iterations (0 when the direct solver handled everything).
  std::uint64_t cg_iterations = 0;
  /// Deployment re-stamps (engine_restamp spans: one per greedy pass that
  /// grew the deployment) performed inside the request.
  std::uint64_t restamps = 0;
  /// Spans captured in the request's trace.
  std::uint64_t span_count = 0;
  /// Numerical-health audit outcome: -1 not audited, 0 certificate failed,
  /// 1 certificate passed (see obs/health.h).
  int audit = -1;
  /// Relative pencil residual from the audit certificate; < 0 when not
  /// audited.
  double rel_residual = -1.0;
  /// Energy-balance closure from the audit certificate; < 0 when not
  /// audited.
  double energy_balance_rel = -1.0;
  /// Streamed frames emitted before the final reply (0 for unary methods).
  std::uint64_t frames = 0;
  /// Span family with the largest aggregate self time inside the request
  /// (the dominant kernel, from RequestTrace::top_self); "" when the trace
  /// is empty.
  std::string top_kernel;
  /// Self time of that dominant kernel [ms].
  double top_self_ms = 0.0;
  /// Completion wall-clock time [µs since the Unix epoch].
  std::int64_t wall_us = 0;
};

/// Fixed-capacity ring of RequestRecords. Thread-safe; overwrites oldest.
class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity);

  /// Append \p record (seq is assigned here); overwrites the oldest entry
  /// once the ring is full.
  void add(RequestRecord record);

  /// Up to \p limit most recent records, newest first.
  std::vector<RequestRecord> recent(std::size_t limit) const;

  std::size_t capacity() const { return capacity_; }
  /// Records currently held (≤ capacity).
  std::size_t size() const;
  /// Records ever added (including overwritten ones).
  std::uint64_t total_added() const;

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<RequestRecord> ring_;  ///< grows to capacity_, then wraps
  std::size_t next_slot_ = 0;
  std::uint64_t next_seq_ = 1;
};

}  // namespace tfc::obs
