#include "svc/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "core/chip.h"
#include "core/cooling_system.h"
#include "io/design_json.h"
#include "io/spec_json.h"
#include "obs/build_info.h"
#include "obs/obs.h"
#include "par/thread_pool.h"
#include "sim/scenario.h"
#include "thermal/package.h"

namespace tfc::svc {

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::int64_t wall_now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

void close_if_open(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// Methods with pre-registered per-method latency histograms. Anything else
/// (unknown methods, shutdown) is bucketed under "other" so a misbehaving
/// client cannot grow the registry without bound.
constexpr const char* kMethodLabels[] = {"ping",   "stats",  "solve",
                                         "design", "runaway", "sweep",
                                         "metrics", "recent", "health",
                                         "inject", "simulate", "profile"};

const char* method_label(const std::string& method) {
  for (const char* known : kMethodLabels) {
    if (method == known) return known;
  }
  return "other";
}

/// Static-lifetime span name per method (TFC_SPAN keeps the pointer), so the
/// profiler/trace tree groups request handling as svc.method.<name>.
const char* method_span_name(const std::string& method) {
  if (method == "ping") return "svc.method.ping";
  if (method == "stats") return "svc.method.stats";
  if (method == "solve") return "svc.method.solve";
  if (method == "design") return "svc.method.design";
  if (method == "runaway") return "svc.method.runaway";
  if (method == "sweep") return "svc.method.sweep";
  if (method == "metrics") return "svc.method.metrics";
  if (method == "recent") return "svc.method.recent";
  if (method == "health") return "svc.method.health";
  if (method == "inject") return "svc.method.inject";
  if (method == "simulate") return "svc.method.simulate";
  if (method == "profile") return "svc.method.profile";
  return "svc.method.other";
}

std::string latency_metric(const char* method) {
  return obs::labeled_name("svc.latency_ms", {{"method", method}});
}

std::string queue_wait_metric(const char* method) {
  return obs::labeled_name("svc.queue_wait_ms", {{"method", method}});
}

/// Pre-register every svc metric so exported documents have a stable schema.
void register_metrics() {
  auto& m = obs::MetricsRegistry::global();
  m.counter("svc.requests.received");
  m.counter("svc.replies.ok");
  m.counter("svc.replies.error");
  m.counter("svc.rejected.overloaded");
  m.counter("svc.rejected.deadline");
  m.counter("svc.rejected.shutting_down");
  m.counter("svc.connections.accepted");
  m.gauge("svc.queue_depth");
  m.gauge("process.uptime_seconds");
  m.gauge("process.rss_bytes");
  // Numerical-health families (svc-side sampling plus the engine-side
  // certificates), pre-registered so the /metrics schema is stable from the
  // first scrape.
  m.counter("svc.audit.samples");
  m.counter("svc.audit.violations");
  m.counter("svc.audit.cross_checks");
  m.counter("svc.audit.cross_check_failures");
  m.histogram("svc.audit.cross_check_drift");
  m.counter("engine.audit.samples");
  m.counter("engine.audit.violations");
  m.counter("engine.audit.degraded");
  m.counter("engine.cg.nonconverged");
  m.histogram("engine.audit.rel_residual");
  m.histogram("engine.audit.energy_balance_rel");
  // Scenario-simulation families (tfc::sim; the streaming `simulate` method).
  m.counter("sim.runs");
  m.counter("sim.steps");
  m.counter("sim.frames");
  m.counter("sim.violations");
  m.histogram("sim.step_ms");
  m.counter("svc.stream.frames");
  m.counter("svc.stream.deadline_aborts");
  // Continuous-profiler cost surface (refreshed on every scrape).
  m.gauge("tfc.prof.overhead_ratio");
  for (const char* method : kMethodLabels) {
    m.histogram(latency_metric(method));
    m.histogram(queue_wait_metric(method));
  }
  m.histogram(latency_metric("other"));
  m.histogram(queue_wait_metric("other"));
}

/// Bind + listen an IPv4 TCP socket per \p spec ("host:port"); returns the
/// fd and stores the bound port (resolves port 0). Throws on failure.
int bind_tcp_listener(const std::string& spec, const char* what, int& port_out) {
  const auto [host, port] = parse_listen_spec(spec);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error(std::string("svc: bad ") + what + " host '" + host +
                             "' (IPv4 only)");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    throw std::runtime_error("svc: socket(AF_INET) failed: " +
                             std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    const std::string msg = std::string("svc: cannot listen on ") + what + " '" +
                            spec + "': " + std::strerror(errno);
    ::close(fd);
    throw std::runtime_error(msg);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_out = ntohs(bound.sin_port);
  }
  return fd;
}

io::JsonValue record_to_json(const obs::RequestRecord& rec) {
  using io::JsonValue;
  JsonValue out = JsonValue::make_object();
  out.set("seq", JsonValue::make_number(double(rec.seq)));
  out.set("id", JsonValue::make_string(rec.id));
  out.set("trace_id", JsonValue::make_string(rec.trace_id));
  out.set("method", JsonValue::make_string(rec.method));
  out.set("chip", rec.chip.empty() ? JsonValue::make_null()
                                   : JsonValue::make_string(rec.chip));
  out.set("spec", rec.spec.empty() ? JsonValue::make_null()
                                   : JsonValue::make_string(rec.spec));
  out.set("cache", rec.cache < 0 ? JsonValue::make_null()
                                 : JsonValue::make_string(rec.cache ? "hit" : "miss"));
  out.set("status", JsonValue::make_string(rec.status));
  out.set("queue_wait_ms", JsonValue::make_number(rec.queue_wait_ms));
  out.set("latency_ms", JsonValue::make_number(rec.latency_ms));
  out.set("factorize_ms", JsonValue::make_number(rec.factorize_ms));
  out.set("solve_ms", JsonValue::make_number(rec.solve_ms));
  out.set("factorizations", JsonValue::make_number(double(rec.factorizations)));
  out.set("cg_iterations", JsonValue::make_number(double(rec.cg_iterations)));
  out.set("backend", rec.backend.empty() ? JsonValue::make_null()
                                         : JsonValue::make_string(rec.backend));
  out.set("restamp_incremental",
          JsonValue::make_number(double(rec.restamp_incremental)));
  out.set("restamp_full", JsonValue::make_number(double(rec.restamp_full)));
  out.set("span_count", JsonValue::make_number(double(rec.span_count)));
  out.set("audit", rec.audit < 0
                       ? JsonValue::make_null()
                       : JsonValue::make_string(rec.audit ? "pass" : "fail"));
  out.set("rel_residual", rec.rel_residual < 0.0
                              ? JsonValue::make_null()
                              : JsonValue::make_number(rec.rel_residual));
  out.set("energy_balance_rel",
          rec.energy_balance_rel < 0.0
              ? JsonValue::make_null()
              : JsonValue::make_number(rec.energy_balance_rel));
  out.set("frames", JsonValue::make_number(double(rec.frames)));
  out.set("top_kernel", rec.top_kernel.empty()
                            ? JsonValue::make_null()
                            : JsonValue::make_string(rec.top_kernel));
  out.set("top_self_ms", JsonValue::make_number(rec.top_self_ms));
  out.set("wall_us", JsonValue::make_number(double(rec.wall_us)));
  return out;
}

}  // namespace

/// One accepted client. The reader thread and any queued request share
/// ownership; the last owner closes the socket. Writes are serialized so
/// concurrent workers cannot interleave reply lines.
struct Server::Connection {
  explicit Connection(int fd) : fd(fd) {}
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }

  void send_line(const std::string& line) {
    std::lock_guard<std::mutex> lock(write_mutex);
    std::string framed = line;
    framed += '\n';
    std::size_t off = 0;
    while (off < framed.size()) {
      const ssize_t n = ::send(fd, framed.data() + off, framed.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return;  // peer went away; nothing useful to do
      off += std::size_t(n);
    }
  }

  int fd = -1;
  std::mutex write_mutex;
};

/// One queued request with its arrival time and absolute deadline.
struct Server::Pending {
  Request request;
  std::shared_ptr<Connection> conn;
  Clock::time_point arrival;
  Clock::time_point deadline;
};

std::pair<std::string, int> parse_listen_spec(const std::string& spec) {
  const auto colon = spec.rfind(':');
  if (colon == std::string::npos) {
    throw std::invalid_argument("listen spec '" + spec + "' must be host:port");
  }
  std::string host = spec.substr(0, colon);
  if (host.empty() || host == "localhost") host = "127.0.0.1";
  const std::string port_text = spec.substr(colon + 1);
  int port = -1;
  try {
    std::size_t used = 0;
    port = std::stoi(port_text, &used);
    if (used != port_text.size()) port = -1;
  } catch (const std::exception&) {
    port = -1;
  }
  if (port < 0 || port > 65535) {
    throw std::invalid_argument("listen spec '" + spec + "': bad port '" + port_text + "'");
  }
  return {host, port};
}

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_capacity),
      recorder_(options_.recorder_capacity == 0 ? 1 : options_.recorder_capacity),
      health_(options_.tolerances,
              options_.health_window == 0 ? 1 : options_.health_window),
      start_time_(Clock::now()) {
  if (options_.workers > par::kMaxThreads) {
    throw std::invalid_argument("svc: more than " + std::to_string(par::kMaxThreads) +
                                " workers");
  }
  register_metrics();
  if (options_.profile) obs::prof::Profiler::global().enable();
  if (options_.workers == 0) options_.workers = 1;
  if (options_.socket_path.empty() && options_.listen.empty()) {
    throw std::runtime_error("svc: need a unix socket path or a --listen address");
  }
  if (!options_.trace_path.empty()) {
    trace_file_.open(options_.trace_path, std::ios::app);
    if (!trace_file_) {
      throw std::runtime_error("svc: cannot open trace file '" +
                               options_.trace_path + "'");
    }
  }

  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    throw std::runtime_error("svc: pipe2 failed: " + std::string(std::strerror(errno)));
  }
  stop_rd_ = pipe_fds[0];
  stop_wr_ = pipe_fds[1];

  try {
    if (!options_.socket_path.empty()) {
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
        throw std::runtime_error("svc: socket path too long: " + options_.socket_path);
      }
      std::strncpy(addr.sun_path, options_.socket_path.c_str(), sizeof(addr.sun_path) - 1);
      unix_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (unix_fd_ < 0) {
        throw std::runtime_error("svc: socket(AF_UNIX) failed: " +
                                 std::string(std::strerror(errno)));
      }
      ::unlink(options_.socket_path.c_str());  // stale socket from a dead server
      if (::bind(unix_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
          ::listen(unix_fd_, 64) != 0) {
        throw std::runtime_error("svc: cannot listen on '" + options_.socket_path +
                                 "': " + std::strerror(errno));
      }
    }
    if (!options_.listen.empty()) {
      tcp_fd_ = bind_tcp_listener(options_.listen, "listen", tcp_port_);
    }
    if (!options_.prom_listen.empty()) {
      prom_fd_ = bind_tcp_listener(options_.prom_listen, "prom", prom_port_);
    }
  } catch (...) {
    close_if_open(unix_fd_);
    close_if_open(tcp_fd_);
    close_if_open(prom_fd_);
    close_if_open(stop_rd_);
    close_if_open(stop_wr_);
    throw;
  }
}

Server::~Server() {
  request_stop();
  close_if_open(unix_fd_);
  close_if_open(tcp_fd_);
  close_if_open(prom_fd_);
  if (!options_.socket_path.empty()) ::unlink(options_.socket_path.c_str());
  close_if_open(stop_rd_);
  close_if_open(stop_wr_);
}

void Server::request_stop() {
  if (stop_wr_ >= 0) {
    // The pipe is deliberately never drained: POLLIN stays level-triggered
    // for every poller (accept loop and all connection readers at once).
    [[maybe_unused]] ssize_t n = ::write(stop_wr_, "s", 1);
  }
}

void Server::run() {
  TFC_LOG_INFO("svc_serving", {"socket", options_.socket_path},
               {"listen", options_.listen}, {"workers", options_.workers},
               {"queue", options_.queue_capacity}, {"cache", options_.cache_capacity});

  workers_.reserve(options_.workers);
  for (std::size_t w = 0; w < options_.workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  if (prom_fd_ >= 0) {
    prom_thread_ = std::thread([this] { http_loop(); });
  }

  accept_loop();

  // Shutdown: refuse new work, then drain. The flag flips under the queue
  // mutex so a reader can never enqueue after the workers' exit condition
  // became observable.
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stopping_.store(true);
  }
  queue_cv_.notify_all();
  close_if_open(unix_fd_);
  close_if_open(tcp_fd_);
  if (!options_.socket_path.empty()) ::unlink(options_.socket_path.c_str());

  for (auto& t : workers_) t.join();
  workers_.clear();
  if (prom_thread_.joinable()) prom_thread_.join();
  close_if_open(prom_fd_);

  // Every queued reply has been written; drop the readers (they wake on the
  // stop pipe) and close the connections.
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (const auto& conn : conns_) ::shutdown(conn->fd, SHUT_RD);
  }
  for (auto& t : conn_threads_) t.join();
  conn_threads_.clear();
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    conns_.clear();
  }
  TFC_LOG_INFO("svc_stopped", {"socket", options_.socket_path});
}

void Server::accept_loop() {
  while (true) {
    pollfd fds[3];
    int listen_fds[3] = {-1, -1, -1};
    nfds_t nfds = 0;
    fds[nfds++] = {stop_rd_, POLLIN, 0};
    if (unix_fd_ >= 0) {
      listen_fds[nfds] = unix_fd_;
      fds[nfds++] = {unix_fd_, POLLIN, 0};
    }
    if (tcp_fd_ >= 0) {
      listen_fds[nfds] = tcp_fd_;
      fds[nfds++] = {tcp_fd_, POLLIN, 0};
    }

    if (::poll(fds, nfds, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[0].revents != 0) break;  // stop requested

    for (nfds_t slot = 1; slot < nfds; ++slot) {
      if ((fds[slot].revents & POLLIN) == 0) continue;
      const int client = ::accept(listen_fds[slot], nullptr, nullptr);
      if (client < 0) continue;
      obs::MetricsRegistry::global().counter("svc.connections.accepted").increment();
      auto conn = std::make_shared<Connection>(client);
      std::lock_guard<std::mutex> lock(conns_mutex_);
      conns_.push_back(conn);
      conn_threads_.emplace_back([this, conn] { connection_loop(conn); });
    }
  }
}

double Server::uptime_seconds() const {
  return std::chrono::duration<double>(Clock::now() - start_time_).count();
}

std::string Server::prometheus_text() {
  auto& m = obs::MetricsRegistry::global();
  m.gauge("process.uptime_seconds").set(uptime_seconds());
  m.gauge("process.rss_bytes").set(double(obs::process_rss_bytes()));
  m.gauge("tfc.prof.overhead_ratio")
      .set(obs::prof::Profiler::global().overhead_ratio());
  return obs::to_prometheus_text(m.snapshot());
}

/// Minimal HTTP/1.1 responder for Prometheus scrapes: one request per
/// connection, `GET /metrics` only, everything else 404. Runs on its own
/// thread; wakes on the stop pipe like every other poller.
void Server::http_loop() {
  while (true) {
    pollfd fds[2] = {{stop_rd_, POLLIN, 0}, {prom_fd_, POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[0].revents != 0) break;  // stop requested
    if ((fds[1].revents & POLLIN) == 0) continue;
    const int client = ::accept(prom_fd_, nullptr, nullptr);
    if (client < 0) continue;

    // A scrape request fits in one read; anything longer is not a scraper.
    char buf[2048];
    const ssize_t n = ::recv(client, buf, sizeof(buf) - 1, 0);
    std::string response;
    if (n > 0) {
      buf[n] = '\0';
      const std::string head(buf);
      const bool is_metrics = head.rfind("GET /metrics ", 0) == 0 ||
                              head.rfind("GET /metrics\r", 0) == 0;
      if (is_metrics) {
        const std::string body = prometheus_text();
        response =
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
            "Content-Length: " + std::to_string(body.size()) + "\r\n"
            "Connection: close\r\n\r\n" + body;
      } else {
        const std::string body = "only GET /metrics is served here\n";
        response =
            "HTTP/1.1 404 Not Found\r\n"
            "Content-Type: text/plain; charset=utf-8\r\n"
            "Content-Length: " + std::to_string(body.size()) + "\r\n"
            "Connection: close\r\n\r\n" + body;
      }
    }
    std::size_t off = 0;
    while (off < response.size()) {
      const ssize_t sent =
          ::send(client, response.data() + off, response.size() - off, MSG_NOSIGNAL);
      if (sent <= 0) break;
      off += std::size_t(sent);
    }
    ::close(client);
  }
}

void Server::connection_loop(std::shared_ptr<Connection> conn) {
  std::string buffer;
  char chunk[4096];
  while (!stopping_.load()) {
    pollfd fds[2] = {{conn->fd, POLLIN, 0}, {stop_rd_, POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // draining; stop reading new requests
    if ((fds[0].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;  // EOF or error
    buffer.append(chunk, std::size_t(n));

    std::size_t start = 0;
    while (true) {
      const std::size_t nl = buffer.find('\n', start);
      if (nl == std::string::npos) break;
      std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!line.empty()) handle_line(conn, line);
    }
    buffer.erase(0, start);
  }
}

void Server::handle_line(const std::shared_ptr<Connection>& conn,
                         const std::string& line) {
  auto& metrics = obs::MetricsRegistry::global();
  metrics.counter("svc.requests.received").increment();

  Request request;
  try {
    request = parse_request(line);
  } catch (const ProtocolError& e) {
    metrics.counter("svc.replies.error").increment();
    conn->send_line(make_error_reply(io::JsonValue::make_null(), e.code(), e.what()));
    return;
  }

  if (request.method == "shutdown") {
    io::JsonValue result = io::JsonValue::make_object();
    result.set("stopping", io::JsonValue::make_bool(true));
    metrics.counter("svc.replies.ok").increment();
    conn->send_line(make_result_reply(request.id, result));
    TFC_LOG_INFO("svc_shutdown_requested");
    request_stop();
    return;
  }

  auto item = std::make_unique<Pending>();
  item->request = std::move(request);
  item->conn = conn;
  item->arrival = Clock::now();
  const double budget_ms =
      item->request.deadline_ms > 0.0 ? item->request.deadline_ms : options_.default_deadline_ms;
  item->deadline =
      item->arrival + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double, std::milli>(budget_ms));

  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (stopping_.load()) {
      metrics.counter("svc.rejected.shutting_down").increment();
      metrics.counter("svc.replies.error").increment();
      conn->send_line(make_error_reply(item->request.id, ErrorCode::kShuttingDown,
                                       "server is draining"));
      return;
    }
    if (queue_.size() >= options_.queue_capacity) {
      metrics.counter("svc.rejected.overloaded").increment();
      metrics.counter("svc.replies.error").increment();
      conn->send_line(make_error_reply(
          item->request.id, ErrorCode::kOverloaded,
          "request queue full (" + std::to_string(options_.queue_capacity) +
              " pending); retry with backoff"));
      return;
    }
    queue_.push_back(std::move(item));
    metrics.gauge("svc.queue_depth").set(double(queue_.size()));
  }
  queue_cv_.notify_one();
}

void Server::worker_loop() {
  while (true) {
    std::unique_ptr<Pending> item;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return stopping_.load() || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_.load()) return;
        continue;
      }
      item = std::move(queue_.front());
      queue_.pop_front();
      obs::MetricsRegistry::global().gauge("svc.queue_depth").set(double(queue_.size()));
    }
    serve_request(*item);
  }
}

void Server::serve_request(Pending& item) {
  auto& metrics = obs::MetricsRegistry::global();
  const auto start = Clock::now();
  const char* method = method_label(item.request.method);
  const double queue_wait = ms_between(item.arrival, start);
  metrics.histogram(queue_wait_metric(method)).record(queue_wait);

  std::string trace_id = item.request.trace_id;
  if (trace_id.empty()) {
    trace_id = "srv-" + std::to_string(::getpid()) + "-" +
               std::to_string(trace_seq_.fetch_add(1) + 1);
  }
  ReplyExtras extras;
  extras.trace_id = trace_id;

  obs::RequestRecord rec;
  rec.id = item.request.id.dump();
  rec.trace_id = trace_id;
  rec.method = item.request.method;
  rec.queue_wait_ms = queue_wait;

  if (start > item.deadline) {
    metrics.counter("svc.rejected.deadline").increment();
    metrics.counter("svc.replies.error").increment();
    rec.status = error_code_name(ErrorCode::kDeadlineExceeded);
    rec.latency_ms = ms_between(item.arrival, Clock::now());
    rec.wall_us = wall_now_us();
    recorder_.add(std::move(rec));
    item.conn->send_line(make_error_reply(
        item.request.id, ErrorCode::kDeadlineExceeded,
        "deadline expired after " + std::to_string(queue_wait) + " ms in queue",
        extras));
    return;
  }

  // Dispatch under a request context so every TFC_SPAN below nests into this
  // request's trace. The scope (and with it the svc.request envelope span)
  // closes before the trace is serialized.
  obs::RequestTrace trace;
  DispatchInfo info;
  io::JsonValue result;
  bool ok = true;
  ErrorCode err_code = ErrorCode::kInternal;
  std::string err_msg;
  // Streaming side-channel: a handler may emit any number of non-final
  // frame lines before its (final) reply. Each frame echoes the request id,
  // carries a monotone per-request seq, and is refused once the deadline
  // expires — the handler sees `false` and stops.
  StreamContext stream;
  stream.emit = [this, &item, &stream](const io::JsonValue& body) -> bool {
    if (Clock::now() > item.deadline) return false;
    io::JsonValue line = io::JsonValue::make_object();
    line.set("id", item.request.id);
    line.set("frame", io::JsonValue::make_number(double(stream.frames)));
    line.set("final", io::JsonValue::make_bool(false));
    line.set("sim", body);
    item.conn->send_line(line.dump());
    ++stream.frames;
    obs::MetricsRegistry::global().counter("svc.stream.frames").increment();
    return true;
  };
  {
    obs::ScopedRequestContext scope(trace_id, &trace);
    TFC_SPAN("svc.request");
    try {
      result = dispatch(item.request, info, stream);
    } catch (const ProtocolError& e) {
      ok = false;
      err_code = e.code();
      err_msg = e.what();
    } catch (const std::invalid_argument& e) {
      // A wrong-typed or out-of-range param, or a refused session input.
      ok = false;
      err_code = ErrorCode::kBadRequest;
      err_msg = e.what();
    } catch (const std::exception& e) {
      ok = false;
      err_code = ErrorCode::kInternal;
      err_msg = e.what();
    }
  }

  std::string trace_json_text;
  io::JsonValue trace_json;
  if (item.request.want_trace || trace_file_.is_open()) {
    trace_json_text = trace.to_json(trace_id);
  }
  if (item.request.want_trace) {
    trace_json = io::parse_json(trace_json_text);
    extras.trace = &trace_json;
  }

  std::string reply;
  if (ok) {
    metrics.counter("svc.replies.ok").increment();
    reply = make_result_reply(item.request.id, result, extras);
  } else {
    metrics.counter("svc.replies.error").increment();
    reply = make_error_reply(item.request.id, err_code, err_msg, extras);
  }
  const double latency = ms_between(item.arrival, Clock::now());
  metrics.histogram(latency_metric(method)).record(latency);

  rec.chip = info.chip;
  rec.spec = info.spec;
  rec.cache = info.cache;
  rec.backend = info.backend;
  rec.audit = info.audit;
  rec.rel_residual = info.rel_residual;
  rec.energy_balance_rel = info.energy_balance_rel;
  rec.status = ok ? "ok" : error_code_name(err_code);
  rec.latency_ms = latency;
  rec.factorize_ms = double(trace.total_us("sparse_factor") +
                            trace.total_us("sparse_refactor")) / 1000.0;
  rec.solve_ms = double(trace.total_us("et_solve")) / 1000.0;
  for (const auto& span : trace.spans()) {
    const std::string_view name(span.name);
    if (name == "sparse_factor" || name == "sparse_refactor") ++rec.factorizations;
    if (name == "engine_restamp_incremental") ++rec.restamp_incremental;
    if (name == "engine_restamp_full") ++rec.restamp_full;
  }
  rec.cg_iterations =
      std::uint64_t(trace.total_attr("cg_solve", "iterations") + 0.5);
  rec.span_count = trace.spans().size();
  rec.frames = stream.frames;
  const auto top = trace.top_self();
  rec.top_kernel = top.name;
  rec.top_self_ms = top.self_ms;
  rec.wall_us = wall_now_us();
  // Record before replying so a client that got its answer and immediately
  // asks `recent` is guaranteed to see this request in the ring.
  recorder_.add(std::move(rec));

  if (trace_file_.is_open()) {
    std::lock_guard<std::mutex> lock(trace_file_mutex_);
    trace_file_ << trace_json_text << '\n';
    trace_file_.flush();
  }

  item.conn->send_line(reply);

  if (options_.slow_ms > 0.0 && latency >= options_.slow_ms) {
    TFC_LOG_WARN("svc_slow_request", {"trace_id", trace_id},
                 {"method", item.request.method}, {"latency_ms", latency},
                 {"queue_wait_ms", queue_wait}, {"slow_ms", options_.slow_ms},
                 {"spans", trace.to_json(trace_id)});
  }
}

namespace {

/// Package hash of the paper's single-die package — the built-in chips'
/// SessionKey::package component, computed once.
const std::string& default_package_hash() {
  static const std::string hash = io::spec_content_hash(*thermal::paper_package());
  return hash;
}

/// \p key of \p params; nullopt when absent or null. A value of another type
/// throws std::invalid_argument (JsonValue::number_or).
std::optional<double> number_param(const io::JsonValue& params, const std::string& key) {
  const io::JsonValue* value = params.get(key);
  if (value == nullptr || value->is_null()) return std::nullopt;
  return params.number_or(key, 0.0);
}

/// The one reader of count params: nullopt when absent or null, else a whole
/// number in [0, 2^53] (exactly representable, so the cast is exact), else
/// std::invalid_argument naming the key.
std::optional<std::size_t> count_param(const io::JsonValue& params,
                                       const std::string& key) {
  const std::optional<double> value = number_param(params, key);
  if (!value) return std::nullopt;
  if (!(*value >= 0.0 && *value <= 9007199254740992.0 && *value == std::floor(*value))) {
    throw std::invalid_argument("'" + key + "' must be a whole number >= 0");
  }
  return std::size_t(*value);
}

}  // namespace

std::shared_ptr<const Session> Server::session_for(const io::JsonValue& params,
                                                   DispatchInfo& info) {
  SessionKey key;
  key.theta_limit_celsius = params.number_or("limit", 85.0);
  // Before the cache lookup: a refused limit never takes or evicts a slot.
  core::DesignRequest::check_theta_limit(key.theta_limit_celsius);

  // Declarative-package path: "spec" names a StackSpec JSON file. The key
  // hashes the file's *content*, so two different packages never share a
  // session (or its cached factorization) even if their names and grids
  // coincide — and an edited file is a fresh key, never a stale hit.
  std::shared_ptr<const thermal::StackSpec> spec;
  const std::string spec_path = params.string_or("spec", "");
  if (!spec_path.empty()) {
    try {
      spec = std::make_shared<const thermal::StackSpec>(io::load_stack_spec(spec_path));
    } catch (const std::exception& e) {
      throw ProtocolError(ErrorCode::kBadRequest,
                          std::string("bad 'spec': ") + e.what());
    }
    key.chip = spec->name.empty() ? "spec" : spec->name;
    key.tile_rows = spec->total_tile_rows();
    key.tile_cols = spec->tile_cols();
    key.package = io::spec_content_hash(*spec);
    info.spec = key.chip + "@" + key.package;
  } else {
    // Built-in chips key on the canonical name, so spellings of one chip
    // ("hc7", "hc007") share a session.
    key.chip = core::builtin_chip_name(params.string_or("chip", "alpha"));
    const thermal::StackSpec& paper = *thermal::paper_package();
    key.tile_rows = paper.total_tile_rows();
    key.tile_cols = paper.tile_cols();
    key.package = default_package_hash();
  }
  info.chip = key.chip;

  bool cache_hit = false;
  auto session = cache_.get_or_build(key, [&spec, &info](const SessionKey& k) {
    auto session = std::make_shared<Session>();
    session->key = k;
    session->spec_id = info.spec;

    core::Chip chip =
        spec != nullptr ? core::spec_chip(spec) : core::builtin_chip(k.chip);
    chip.name = k.chip;
    session->solver = core::open_session(std::move(chip), k.theta_limit_celsius);
    // Every request reads λ_m; compute it once, with the build.
    (void)session->solver.lambda_m();
    TFC_LOG_INFO("svc_session_built", {"key", k.to_string()},
                 {"spec", session->spec_id}, {"tecs", session->solver.design.tec_count});
    return std::shared_ptr<const Session>(session);
  }, &cache_hit);
  info.cache = cache_hit ? 1 : 0;
  info.spec = session->spec_id;
  info.backend = engine::backend_name(session->solver.context->options().backend);
  return session;
}

io::JsonValue Server::dispatch(const Request& request, DispatchInfo& info,
                               StreamContext& stream) {
  using io::JsonValue;
  const JsonValue& params = request.params;
  TFC_SPAN(method_span_name(request.method));

  if (request.method == "ping") {
    const double delay_ms = params.number_or("delay_ms", 0.0);
    if (delay_ms < 0.0 || delay_ms > 60000.0) {
      throw ProtocolError(ErrorCode::kBadRequest, "'delay_ms' must be in [0, 60000]");
    }
    if (delay_ms > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(delay_ms));
    }
    JsonValue result = JsonValue::make_object();
    result.set("pong", JsonValue::make_bool(true));
    return result;
  }

  if (request.method == "stats") {
    JsonValue cache = JsonValue::make_object();
    cache.set("capacity", JsonValue::make_number(double(cache_.capacity())));
    cache.set("size", JsonValue::make_number(double(cache_.size())));
    cache.set("hits", JsonValue::make_number(double(cache_.hits())));
    cache.set("misses", JsonValue::make_number(double(cache_.misses())));
    cache.set("evictions", JsonValue::make_number(double(cache_.evictions())));
    JsonValue result = JsonValue::make_object();
    result.set("cache", cache);
    result.set("workers", JsonValue::make_number(double(options_.workers)));
    result.set("queue_capacity", JsonValue::make_number(double(options_.queue_capacity)));
    result.set("version", JsonValue::make_string(TFC_BUILD_VERSION));
    result.set("git", JsonValue::make_string(TFC_BUILD_GIT_DESCRIBE));
    result.set("pid", JsonValue::make_number(double(::getpid())));
    result.set("uptime_s", JsonValue::make_number(uptime_seconds()));
    result.set("rss_bytes", JsonValue::make_number(double(obs::process_rss_bytes())));
    JsonValue recorder = JsonValue::make_object();
    recorder.set("capacity", JsonValue::make_number(double(recorder_.capacity())));
    recorder.set("size", JsonValue::make_number(double(recorder_.size())));
    recorder.set("total", JsonValue::make_number(double(recorder_.total_added())));
    result.set("recorder", recorder);
    return result;
  }

  if (request.method == "metrics") {
    const std::string format = params.string_or("format", "json");
    JsonValue result = JsonValue::make_object();
    result.set("format", JsonValue::make_string(format));
    if (format == "json") {
      auto& m = obs::MetricsRegistry::global();
      m.gauge("process.uptime_seconds").set(uptime_seconds());
      m.gauge("process.rss_bytes").set(double(obs::process_rss_bytes()));
      result.set("metrics", io::parse_json(m.to_json()));
    } else if (format == "prometheus") {
      result.set("text", JsonValue::make_string(prometheus_text()));
    } else {
      throw ProtocolError(ErrorCode::kBadRequest,
                          "'format' must be \"json\" or \"prometheus\"");
    }
    return result;
  }

  if (request.method == "profile") {
    const std::string format = params.string_or("format", "json");
    if (format != "json" && format != "collapsed") {
      throw ProtocolError(ErrorCode::kBadRequest,
                          "'format' must be \"json\" or \"collapsed\"");
    }
    // windowed=true harvests-and-resets (every frame lands in exactly one
    // window, like /metrics snapshots); default is cumulative since enable.
    const bool windowed = params.bool_or("windowed", false);
    auto& prof = obs::prof::Profiler::global();
    const obs::prof::ProfileSnapshot snap = prof.snapshot(windowed);
    obs::MetricsRegistry::global()
        .gauge("tfc.prof.overhead_ratio")
        .set(prof.overhead_ratio());

    JsonValue result = JsonValue::make_object();
    result.set("format", JsonValue::make_string(format));
    result.set("enabled", JsonValue::make_bool(snap.enabled));
    result.set("windowed", JsonValue::make_bool(snap.windowed));
    result.set("overhead_ratio", JsonValue::make_number(snap.overhead_ratio));
    // Totals are per-name counts/self-times summed over the whole tree —
    // the cross-checkable invariant (counts are deterministic for a given
    // workload; wall times are not).
    JsonValue totals = JsonValue::make_object();
    totals.set("count", JsonValue::make_number(double(snap.total_count())));
    totals.set("self_ms",
               JsonValue::make_number(double(snap.total_self_ns()) * 1e-6));
    result.set("totals", totals);
    if (format == "json") {
      result.set("profile", io::parse_json(obs::prof::to_json(snap)));
    } else {
      result.set("text", JsonValue::make_string(obs::prof::to_collapsed(snap)));
    }
    return result;
  }

  if (request.method == "recent") {
    const std::size_t count = count_param(params, "count").value_or(20);
    if (count < 1 || count > 10000) {
      throw ProtocolError(ErrorCode::kBadRequest,
                          "'count' must be an integer in [1, 10000]");
    }
    const auto records = recorder_.recent(count);
    JsonValue requests = JsonValue::make_array();
    for (const auto& rec : records) requests.push_back(record_to_json(rec));
    JsonValue result = JsonValue::make_object();
    result.set("capacity", JsonValue::make_number(double(recorder_.capacity())));
    result.set("total", JsonValue::make_number(double(recorder_.total_added())));
    result.set("requests", requests);
    return result;
  }

  if (request.method == "solve") {
    auto session = session_for(params, info);
    const core::Session& solver = session->solver;
    double current = params.number_or("current", solver.design.current);
    if (current < 0.0) {
      throw ProtocolError(ErrorCode::kBadRequest, "'current' must be nonnegative");
    }
    const std::optional<double> lambda_m = solver.lambda_m();
    if (lambda_m) {
      // λ_m margin of the requested operating point, on the svc.request span.
      TFC_SPAN_ATTR("lambda_margin_a", *lambda_m - current);
    }
    std::optional<tec::OperatingPoint> op;
    try {
      op = solver.context->solve(current);
    } catch (const engine::CgNonConvergedError& e) {
      // First-class non-convergence: a typed internal error instead of a
      // silently-wrong θ, and a degraded mark in the health window.
      health_.record_degraded(session->key.to_string());
      throw ProtocolError(ErrorCode::kInternal,
                          std::string("numerical failure: ") + e.what());
    }
    if (!op) {
      throw ProtocolError(ErrorCode::kBadRequest,
                          "current " + std::to_string(current) +
                              " A is at or beyond the runaway limit");
    }
    audit_solve(*session, *op, info.cache == 1, info);
    JsonValue result = JsonValue::make_object();
    result.set("chip", JsonValue::make_string(session->key.chip));
    result.set("current_a", JsonValue::make_number(current));
    result.set("peak_celsius",
               JsonValue::make_number(thermal::to_celsius(op->peak_tile_temperature)));
    result.set("tec_power_w", JsonValue::make_number(op->tec_input_power));
    result.set("tec_count", JsonValue::make_number(double(solver.design.tec_count)));
    result.set("lambda_m_a",
               lambda_m ? JsonValue::make_number(*lambda_m) : JsonValue::make_null());
    return result;
  }

  if (request.method == "design") {
    auto session = session_for(params, info);
    // Re-use the canonical serializer so the service and `tfcool design
    // --json` emit byte-identical documents for the same chip.
    return io::parse_json(io::design_result_to_json(session->solver.design));
  }

  if (request.method == "runaway") {
    auto session = session_for(params, info);
    // λ_m has one method, the sparse Lanczos the session already cached; the
    // reply names it, and a request for any other method is refused.
    const std::string method = params.string_or("method", "sparse");
    if (method != "sparse") {
      throw ProtocolError(ErrorCode::kBadRequest,
                          "unknown runaway method '" + method + "' (use sparse)");
    }
    const std::optional<double> lambda_m = session->solver.lambda_m();
    JsonValue result = JsonValue::make_object();
    result.set("chip", JsonValue::make_string(session->key.chip));
    result.set("method", JsonValue::make_string("sparse"));
    result.set("tec_count",
               JsonValue::make_number(double(session->solver.design.tec_count)));
    result.set("lambda_m_a",
               lambda_m ? JsonValue::make_number(*lambda_m) : JsonValue::make_null());
    return result;
  }

  if (request.method == "sweep") {
    core::SweepRequest sweep;
    sweep.points = count_param(params, "points").value_or(sweep.points);
    sweep.max_fraction = params.number_or("max_fraction", sweep.max_fraction);
    sweep.validate();
    auto session = session_for(params, info);
    JsonValue currents = JsonValue::make_array();
    JsonValue peaks = JsonValue::make_array();
    JsonValue powers = JsonValue::make_array();
    for (const core::SweepRow& row : core::sweep(session->solver, sweep)) {
      currents.push_back(JsonValue::make_number(row.current));
      peaks.push_back(JsonValue::make_number(row.peak_celsius));
      powers.push_back(JsonValue::make_number(row.tec_power));
    }
    JsonValue result = JsonValue::make_object();
    result.set("chip", JsonValue::make_string(session->key.chip));
    result.set("lambda_m_a", JsonValue::make_number(*session->solver.lambda_m()));
    result.set("current_a", currents);
    result.set("peak_celsius", peaks);
    result.set("tec_power_w", powers);
    return result;
  }

  if (request.method == "health") {
    using obs::health::ScopeStats;
    JsonValue result = JsonValue::make_object();
    result.set("verdict",
               JsonValue::make_string(obs::health::verdict_name(health_.verdict())));
    result.set("samples", JsonValue::make_number(double(health_.total_samples())));
    result.set("violations", JsonValue::make_number(double(health_.total_violations())));
    result.set("audit_every", JsonValue::make_number(double(options_.audit_every)));
    result.set("cross_check_every",
               JsonValue::make_number(double(options_.cross_check_every)));
    result.set("window", JsonValue::make_number(double(health_.window())));

    const auto& tol = health_.tolerances();
    JsonValue tolerances = JsonValue::make_object();
    tolerances.set("max_rel_residual", JsonValue::make_number(tol.max_rel_residual));
    tolerances.set("max_energy_balance_rel",
                   JsonValue::make_number(tol.max_energy_balance_rel));
    tolerances.set("theta_min_k", JsonValue::make_number(tol.theta_min_k));
    tolerances.set("theta_max_k", JsonValue::make_number(tol.theta_max_k));
    tolerances.set("max_cross_check_drift",
                   JsonValue::make_number(tol.max_cross_check_drift));
    result.set("tolerances", tolerances);

    JsonValue offenders = JsonValue::make_array();
    for (const auto& scope : health_.offending_scopes()) {
      offenders.push_back(JsonValue::make_string(scope));
    }
    result.set("offenders", offenders);

    JsonValue scopes = JsonValue::make_array();
    for (const auto& [name, stats] : health_.snapshot()) {
      JsonValue s = JsonValue::make_object();
      s.set("scope", JsonValue::make_string(name));
      s.set("samples", JsonValue::make_number(double(stats.samples)));
      s.set("violations", JsonValue::make_number(double(stats.violations)));
      s.set("degraded", JsonValue::make_number(double(stats.degraded)));
      s.set("worst_rel_residual",
            stats.worst_rel_residual < 0.0
                ? JsonValue::make_null()
                : JsonValue::make_number(stats.worst_rel_residual));
      s.set("worst_energy_balance_rel",
            stats.worst_energy_balance_rel < 0.0
                ? JsonValue::make_null()
                : JsonValue::make_number(stats.worst_energy_balance_rel));
      s.set("cross_checks", JsonValue::make_number(double(stats.cross_checks)));
      s.set("cross_check_failures",
            JsonValue::make_number(double(stats.cross_check_failures)));
      s.set("last_cross_check_drift",
            stats.last_cross_check_drift < 0.0
                ? JsonValue::make_null()
                : JsonValue::make_number(stats.last_cross_check_drift));
      s.set("window_samples", JsonValue::make_number(double(stats.window_samples)));
      s.set("window_violations",
            JsonValue::make_number(double(stats.window_violations)));
      s.set("window_degraded", JsonValue::make_number(double(stats.window_degraded)));
      scopes.push_back(s);
    }
    result.set("scopes", scopes);
    return result;
  }

  if (request.method == "inject") {
    if (!options_.fault_injection) {
      throw ProtocolError(ErrorCode::kBadRequest,
                          "fault injection is disabled (start the server with "
                          "--fault-injection)");
    }
    auto session = session_for(params, info);
    const double offset = params.number_or("theta_offset_k", 1.0);
    if (!(std::abs(offset) <= 100.0)) {
      throw ProtocolError(ErrorCode::kBadRequest,
                          "'theta_offset_k' must be in [-100, 100]");
    }
    session->fault_theta_offset_k.store(offset, std::memory_order_relaxed);
    TFC_LOG_WARN("svc_fault_injected", {"scope", session->key.to_string()},
                 {"theta_offset_k", offset});
    JsonValue result = JsonValue::make_object();
    result.set("chip", JsonValue::make_string(session->key.chip));
    result.set("theta_offset_k", JsonValue::make_number(offset));
    return result;
  }

  if (request.method == "simulate") {
    sim::SimulateRequest simulate;
    simulate.benchmark = params.string_or("benchmark", simulate.benchmark);
    simulate.dt = params.number_or("dt", simulate.dt);
    simulate.steps = count_param(params, "steps").value_or(simulate.steps);
    simulate.frame_every =
        count_param(params, "frame_every").value_or(simulate.frame_every);
    simulate.control_every =
        count_param(params, "control_every").value_or(simulate.control_every);
    simulate.dtm = params.bool_or("dtm", simulate.dtm);
    simulate.tiles = params.bool_or("tiles", simulate.tiles);
    simulate.current = number_param(params, "current");
    simulate.tec_on = count_param(params, "tec_on_step");
    simulate.tec_off = count_param(params, "tec_off_step");
    simulate.validate();
    auto session = session_for(params, info);
    const core::Session& solver = session->solver;
    const sim::ScenarioSummary summary =
        sim::simulate(solver, simulate, [&](const sim::Frame& frame) {
          return stream.emit(sim::frame_to_json(frame, *solver.chip.plan));
        });
    if (summary.aborted) {
      obs::MetricsRegistry::global().counter("svc.stream.deadline_aborts").increment();
      throw ProtocolError(ErrorCode::kDeadlineExceeded,
                          "deadline expired mid-stream after " +
                              std::to_string(summary.frames) + " frames");
    }

    JsonValue result = JsonValue::make_object();
    result.set("chip", JsonValue::make_string(session->key.chip));
    result.set("benchmark", JsonValue::make_string(simulate.benchmark));
    result.set("dtm", JsonValue::make_bool(simulate.dtm));
    result.set("current_a", JsonValue::make_number(simulate.supply(solver)));
    result.set("tec_count", JsonValue::make_number(double(solver.design.tec_count)));
    result.set("summary", sim::summary_to_json(summary));
    return result;
  }

  throw ProtocolError(
      ErrorCode::kUnknownMethod,
      "unknown method '" + request.method +
          "' (use ping|stats|metrics|recent|health|profile|solve|design|"
          "runaway|sweep|simulate|shutdown)");
}

void Server::audit_solve(const Session& session, const tec::OperatingPoint& op,
                         bool cache_hit, DispatchInfo& info) {
  if (options_.audit_every == 0 || session.solver.context == nullptr) return;
  const std::uint64_t seq = audit_seq_.fetch_add(1, std::memory_order_relaxed);
  if (seq % options_.audit_every != 0) return;

  TFC_SPAN("svc_audit");
  auto& metrics = obs::MetricsRegistry::global();
  const std::string scope = session.key.to_string();

  // Apply any injected fault to a copy of θ, so the audit sees exactly the
  // corrupted solution a stale cached factor would have produced.
  const double fault = session.fault_theta_offset_k.load(std::memory_order_relaxed);
  const tec::OperatingPoint* audited = &op;
  tec::OperatingPoint faulted;
  if (fault != 0.0) {
    faulted = op;
    for (std::size_t k = 0; k < faulted.theta.size(); ++k) faulted.theta[k] += fault;
    audited = &faulted;
  }

  const obs::health::Certificate cert = session.solver.context->audit(*audited);
  metrics.counter("svc.audit.samples").increment();
  const bool ok = health_.record_certificate(scope, cert);
  info.audit = ok ? 1 : 0;
  info.rel_residual = cert.rel_residual;
  info.energy_balance_rel = cert.energy_balance_rel;
  if (!ok) {
    metrics.counter("svc.audit.violations").increment();
    TFC_LOG_WARN("svc_audit_violation", {"scope", scope},
                 {"certificate", cert.describe()});
  }

  // Sampled backend cross-check on cache hits: an independent CG solve of
  // the same pencil catches a stale or corrupted cached factor, which the
  // residual — computed against the same matrices — cannot.
  if (options_.cross_check_every == 0 || !cache_hit) return;
  const std::uint64_t xseq = cross_check_seq_.fetch_add(1, std::memory_order_relaxed);
  if (xseq % options_.cross_check_every != 0) return;

  TFC_SPAN("svc_cross_check");
  double drift = -1.0;
  try {
    const auto check =
        session.solver.context->solve_backend(engine::Backend::kCg, op.current);
    if (check.has_value()) {
      double num = 0.0, den = 0.0;
      for (std::size_t k = 0; k < check->theta.size(); ++k) {
        num = std::max(num, std::abs(audited->theta[k] - check->theta[k]));
        den = std::max(den, std::abs(check->theta[k]));
      }
      drift = den > 0.0 ? num / den : num;
    }
  } catch (const engine::CgNonConvergedError&) {
    // The checking backend itself struggled; that is degradation, not drift.
    health_.record_degraded(scope);
    return;
  }
  metrics.counter("svc.audit.cross_checks").increment();
  if (drift >= 0.0) metrics.histogram("svc.audit.cross_check_drift").record(drift);
  if (!health_.record_cross_check(scope, drift)) {
    metrics.counter("svc.audit.cross_check_failures").increment();
    metrics.counter("svc.audit.violations").increment();
    info.audit = 0;
    TFC_LOG_WARN("svc_cross_check_drift", {"scope", scope}, {"drift", drift});
  }
}

}  // namespace tfc::svc
