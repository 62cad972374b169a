/// \file server.h
/// \brief The persistent solver service behind `tfcool serve`.
///
/// A long-lived daemon answering solve/design/runaway/sweep queries over a
/// unix-domain socket (optionally TCP) in the newline-delimited JSON
/// protocol of protocol.h. The serving pipeline is:
///
///   connection reader threads → bounded request queue → worker group
///
/// with three explicit back-pressure behaviors instead of unbounded
/// buffering:
///  - a full queue rejects immediately with an `overloaded` (429) reply;
///  - every request carries a deadline (its own `deadline_ms` or the server
///    default) measured from arrival — once expired the request is answered
///    with `deadline_exceeded` instead of being served late;
///  - during shutdown new requests get `shutting_down` while everything
///    already queued is drained and answered before the process exits.
///
/// Sessions (assembled systems + symbolic Cholesky analyses, see
/// session_cache.h) are shared across requests through an LRU cache, so a
/// repeat query skips assembly and analysis entirely. Counters and latency
/// histograms are published in tfc::obs::MetricsRegistry under `svc.*`
/// (latency and queue wait are labeled per method,
/// `svc.latency_ms{method="solve"}`).
///
/// Live observability (PR 4): every request runs under an
/// obs::ScopedRequestContext, so the spans of the whole solver stack nest
/// into a per-request trace that can be returned inline (`"trace": true`),
/// appended to a rolling trace file (`--trace-file`), or attached to the
/// `svc_slow_request` WARN when latency exceeds `--slow-ms`. Completed
/// requests land in an obs::FlightRecorder ring served by the `recent`
/// method; `metrics` returns the registry as JSON or Prometheus text, and
/// `--prom-addr` starts a plain-HTTP `GET /metrics` responder.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/health.h"
#include "svc/protocol.h"
#include "svc/session_cache.h"

namespace tfc::svc {

struct ServerOptions {
  /// Path of the unix-domain listening socket (created on start, unlinked on
  /// stop). Empty disables the unix listener.
  std::string socket_path;
  /// Optional TCP listen address, "host:port" (IPv4; empty host = loopback;
  /// port 0 = ephemeral, see Server::tcp_port()). Empty disables TCP.
  std::string listen;
  /// Optional plain-HTTP metrics address, "host:port" (same spec syntax as
  /// `listen`). Serves `GET /metrics` in Prometheus text format; empty
  /// disables the listener. See Server::prom_port().
  std::string prom_listen;
  /// Worker threads draining the request queue, at most par::kMaxThreads
  /// (the constructor throws std::invalid_argument above it). Each worker
  /// runs the full solver stack (which parallelizes internally via tfc::par).
  std::size_t workers = 2;
  /// Bounded request-queue capacity; a full queue sheds load.
  std::size_t queue_capacity = 64;
  /// LRU session-cache capacity (sessions, not bytes).
  std::size_t cache_capacity = 8;
  /// Deadline applied to requests that do not carry their own [ms].
  double default_deadline_ms = 60000.0;
  /// Latency threshold for the structured `svc_slow_request` WARN (with the
  /// request's span tree attached); 0 disables slow-request logging.
  double slow_ms = 0.0;
  /// Flight-recorder capacity (completed requests remembered for `recent`).
  std::size_t recorder_capacity = 128;
  /// Append every completed request's span tree as one JSONL line to this
  /// file; empty disables the trace file.
  std::string trace_path;
  /// Numerical-health audit: certify 1-in-N successful `solve` requests
  /// (residual, energy balance, θ bounds, λ_m margin — see obs/health.h).
  /// The sample counter starts at 0, so the first solve is always audited.
  /// 0 disables auditing.
  std::size_t audit_every = 8;
  /// Cross-check: re-solve 1-in-N *audited* cache-hit requests by CG
  /// (SolveContext::solve_cg) and compare θ — catches a stale factor or
  /// re-stamp drift that a residual against the same matrix cannot see.
  /// 0 disables.
  std::size_t cross_check_every = 4;
  /// Enable the test-only `inject` method (fault injection into a session's
  /// solved θ); off in production.
  bool fault_injection = false;
  /// Enable the continuous profiler (obs/prof.h) at startup, so the
  /// `profile` method serves live per-kernel attribution and /metrics
  /// exports `tfc_prof_overhead_ratio`. Off by default: the profiler costs
  /// ~two clock reads per span even though its measured overhead stays
  /// well under the 5% CI ceiling.
  bool profile = false;
};

/// One serving instance. Construction binds the listeners (throwing
/// std::runtime_error on failure); run() serves until a shutdown request,
/// request_stop(), or a byte written to signal_fd().
class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Serve until stopped, then drain and answer everything queued. Returns
  /// when the last reply has been written.
  void run();

  /// Ask run() to stop (thread-safe; callable before or during run()).
  void request_stop();

  /// Write end of the internal stop pipe. Writing one byte is
  /// async-signal-safe, so a SIGINT/SIGTERM handler can trigger graceful
  /// shutdown: `write(server.signal_fd(), "s", 1)`.
  int signal_fd() const { return stop_wr_; }

  /// Bound TCP port (after construction; 0 when TCP is disabled).
  int tcp_port() const { return tcp_port_; }

  /// Bound metrics-HTTP port (after construction; 0 when disabled).
  int prom_port() const { return prom_port_; }

  const ServerOptions& options() const { return options_; }
  SessionCache& cache() { return cache_; }
  obs::FlightRecorder& recorder() { return recorder_; }
  obs::health::HealthMonitor& health() { return health_; }

 private:
  struct Connection;
  struct Pending;

  /// What dispatch learned about a request, for the flight record.
  struct DispatchInfo {
    std::string chip;     ///< "" for non-solver methods
    std::string spec;     ///< "name@hash" for StackSpec sessions, else ""
    int cache = -1;       ///< session-cache outcome: -1 n/a, 0 miss, 1 hit
    int audit = -1;       ///< health audit: -1 not audited, 0 failed, 1 passed
    double rel_residual = -1.0;        ///< audit certificate, when audited
    double energy_balance_rel = -1.0;  ///< audit certificate, when audited
  };

  /// Streaming side-channel of one in-flight request: emit() writes one
  /// seq-numbered non-final frame line to the request's connection, echoing
  /// its id, and returns false once the request's deadline has expired (the
  /// handler should then stop streaming). Owned by serve_request.
  struct StreamContext {
    std::function<bool(const io::JsonValue& body)> emit;
    std::uint64_t frames = 0;
  };

  void accept_loop();
  void connection_loop(std::shared_ptr<Connection> conn);
  void worker_loop();
  void http_loop();
  void handle_line(const std::shared_ptr<Connection>& conn, const std::string& line);
  void serve_request(Pending& item);
  io::JsonValue dispatch(const Request& request, DispatchInfo& info,
                         StreamContext& stream);

  std::shared_ptr<const Session> session_for(const io::JsonValue& params,
                                             DispatchInfo& info);

  /// Sampled numerical-health audit of one successful `solve`: certify the
  /// operating point (applying any injected fault first), feed the health
  /// monitor and svc.audit.* metrics, and — 1-in-cross_check_every audited
  /// cache hits — re-solve by CG (SolveContext::solve_cg) and compare θ.
  void audit_solve(const Session& session, const tec::OperatingPoint& op,
                   bool cache_hit, DispatchInfo& info);

  /// Registry rendered as Prometheus text, with the process.* gauges
  /// (uptime, RSS) refreshed first.
  std::string prometheus_text();

  double uptime_seconds() const;

  ServerOptions options_;
  SessionCache cache_;
  obs::FlightRecorder recorder_;
  obs::health::HealthMonitor health_;
  std::atomic<std::uint64_t> audit_seq_{0};
  std::atomic<std::uint64_t> cross_check_seq_{0};

  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  int tcp_port_ = 0;
  int prom_fd_ = -1;
  int prom_port_ = 0;
  int stop_rd_ = -1;
  int stop_wr_ = -1;

  std::chrono::steady_clock::time_point start_time_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> trace_seq_{0};

  std::mutex trace_file_mutex_;
  std::ofstream trace_file_;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<std::unique_ptr<Pending>> queue_;

  std::mutex conns_mutex_;
  std::vector<std::shared_ptr<Connection>> conns_;
  std::vector<std::thread> conn_threads_;
  std::vector<std::thread> workers_;
  std::thread prom_thread_;
};

/// Split a "host:port" listen spec (empty host = "127.0.0.1"). Throws
/// std::invalid_argument on a malformed spec or port outside [0, 65535].
std::pair<std::string, int> parse_listen_spec(const std::string& spec);

}  // namespace tfc::svc
