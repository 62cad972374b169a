/// End-to-end tests of the solver service: a real Server on a temp unix
/// socket (plus TCP), driven through the blocking Client. The solver-heavy
/// paths use the small built-in chips so the suite stays fast; the
/// scheduling paths (deadline, overload, drain) use `ping` with `delay_ms`
/// so they are deterministic without burning CPU.
#include "svc/server.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/obs.h"
#include "par/thread_pool.h"
#include "svc/client.h"

namespace tfc::svc {
namespace {

std::string temp_socket_path(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("tfc_svc_test_" + tag + "_" + std::to_string(::getpid()) + ".sock"))
      .string();
}

/// Server running on a background thread for the duration of a test.
class ServerFixture {
 public:
  explicit ServerFixture(ServerOptions options) : server_(std::move(options)) {
    thread_ = std::thread([this] { server_.run(); });
  }

  ~ServerFixture() {
    server_.request_stop();
    thread_.join();
  }

  Server& server() { return server_; }

 private:
  Server server_;
  std::thread thread_;
};

ServerOptions quick_options(const std::string& tag) {
  ServerOptions o;
  o.socket_path = temp_socket_path(tag);
  o.workers = 2;
  o.queue_capacity = 16;
  o.cache_capacity = 4;
  return o;
}

TEST(Service, WorkerCountIsBounded) {
  ServerOptions o = quick_options("workers");
  o.workers = par::kMaxThreads + 1;
  EXPECT_THROW(Server server(o), std::invalid_argument);
}

TEST(Service, PingPong) {
  ServerFixture fx(quick_options("ping"));
  auto client = Client::connect_unix(fx.server().options().socket_path);
  auto reply = client.call("ping");
  EXPECT_TRUE(reply.at("ok").as_bool());
  EXPECT_TRUE(reply.at("result").at("pong").as_bool());
  EXPECT_DOUBLE_EQ(reply.at("id").as_number(), 1.0);
}

TEST(Service, TcpListenerWorks) {
  ServerOptions o;
  o.listen = "127.0.0.1:0";
  o.workers = 1;
  ServerFixture fx(o);
  ASSERT_GT(fx.server().tcp_port(), 0);
  auto client = Client::connect_tcp("127.0.0.1", fx.server().tcp_port());
  auto reply = client.call("ping");
  EXPECT_TRUE(reply.at("ok").as_bool());
}

TEST(Service, MalformedLineGetsParseError) {
  ServerFixture fx(quick_options("parse"));
  auto client = Client::connect_unix(fx.server().options().socket_path);
  auto reply = io::parse_json(client.call_raw("this is not json"));
  EXPECT_FALSE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("error").at("code").as_string(), "parse_error");
  EXPECT_TRUE(reply.at("id").is_null());
  // The connection survives a bad line.
  EXPECT_TRUE(client.call("ping").at("ok").as_bool());
}

TEST(Service, UnknownMethodNamed) {
  ServerFixture fx(quick_options("method"));
  auto client = Client::connect_unix(fx.server().options().socket_path);
  auto reply = client.call("frobnicate");
  EXPECT_FALSE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("error").at("code").as_string(), "unknown_method");
  const std::string message = reply.at("error").at("message").as_string();
  EXPECT_NE(message.find("frobnicate"), std::string::npos);
  // The hint lists every method a client may call.
  for (const char* method : {"ping", "stats", "solve", "design", "runaway", "sweep",
                             "metrics", "recent", "health", "inject", "simulate",
                             "profile", "shutdown"}) {
    EXPECT_NE(message.find(method), std::string::npos) << method;
  }
}

TEST(Service, ProfileMethodValidatesFormatAndReportsState) {
  auto opts = quick_options("profile");
  opts.profile = true;
  ServerFixture fx(opts);
  auto client = Client::connect_unix(fx.server().options().socket_path);

  io::JsonValue bad = io::JsonValue::make_object();
  bad.set("format", io::JsonValue::make_string("xml"));
  auto err = client.call("profile", bad);
  EXPECT_FALSE(err.at("ok").as_bool());
  EXPECT_EQ(err.at("error").at("code").as_string(), "bad_request");
  EXPECT_NE(err.at("error").at("message").as_string().find("format"),
            std::string::npos);

  auto reply = client.call("profile");
  ASSERT_TRUE(reply.at("ok").as_bool());
  const auto& result = reply.at("result");
  EXPECT_EQ(result.at("format").as_string(), "json");
  EXPECT_TRUE(result.at("enabled").as_bool());
  EXPECT_FALSE(result.at("windowed").as_bool());
  EXPECT_GE(result.at("overhead_ratio").as_number(), 0.0);
  // The handler's own svc.method.profile span is profiled, so the tree is
  // never empty while the profiler is on.
  EXPECT_GT(result.at("totals").at("count").as_number(), 0.0);
  EXPECT_TRUE(result.at("profile").is_object());

  io::JsonValue collapsed = io::JsonValue::make_object();
  collapsed.set("format", io::JsonValue::make_string("collapsed"));
  collapsed.set("windowed", io::JsonValue::make_bool(true));
  auto text_reply = client.call("profile", collapsed);
  ASSERT_TRUE(text_reply.at("ok").as_bool());
  EXPECT_TRUE(text_reply.at("result").at("windowed").as_bool());
  EXPECT_NE(text_reply.at("result").at("text").as_string().find("svc.method"),
            std::string::npos);

  obs::prof::Profiler::global().disable();
  (void)obs::prof::Profiler::global().snapshot(true);
}

TEST(Service, SolveServedFromSessionCacheOnRepeat) {
  ServerFixture fx(quick_options("cache"));
  auto client = Client::connect_unix(fx.server().options().socket_path);
  const auto hits_before = fx.server().cache().hits();

  io::JsonValue params = io::JsonValue::make_object();
  params.set("chip", io::JsonValue::make_string("alpha"));
  auto first = client.call("solve", params);
  ASSERT_TRUE(first.at("ok").as_bool()) << first.dump();
  auto second = client.call("solve", params);
  ASSERT_TRUE(second.at("ok").as_bool());

  EXPECT_GE(fx.server().cache().hits() - hits_before, 1u);
  // Identical query → identical answer (the cache is semantically invisible).
  EXPECT_EQ(first.at("result").dump(), second.at("result").dump());
  EXPECT_GT(first.at("result").at("peak_celsius").as_number(), 20.0);
  EXPECT_GT(first.at("result").at("tec_count").as_number(), 0.0);
}

TEST(Service, DesignMatchesCliSerialization) {
  ServerFixture fx(quick_options("design"));
  auto client = Client::connect_unix(fx.server().options().socket_path);
  auto reply = client.call("design");
  ASSERT_TRUE(reply.at("ok").as_bool()) << reply.dump();
  const auto& result = reply.at("result");
  EXPECT_EQ(result.at("chip").as_string(), "alpha");
  EXPECT_TRUE(result.at("success").as_bool());
  EXPECT_EQ(result.at("deployment").as_array().size(), 12u);
}

TEST(Service, RunawayAndSweep) {
  ServerFixture fx(quick_options("sweep"));
  auto client = Client::connect_unix(fx.server().options().socket_path);

  auto runaway = client.call("runaway");
  ASSERT_TRUE(runaway.at("ok").as_bool());
  const double lm = runaway.at("result").at("lambda_m_a").as_number();
  EXPECT_GT(lm, 0.0);

  io::JsonValue params = io::JsonValue::make_object();
  params.set("points", io::JsonValue::make_number(5));
  auto sweep = client.call("sweep", params);
  ASSERT_TRUE(sweep.at("ok").as_bool());
  const auto& currents = sweep.at("result").at("current_a").as_array();
  const auto& peaks = sweep.at("result").at("peak_celsius").as_array();
  ASSERT_EQ(currents.size(), 6u);
  ASSERT_EQ(peaks.size(), 6u);
  EXPECT_DOUBLE_EQ(sweep.at("result").at("lambda_m_a").as_number(), lm);
}

TEST(Service, RunawayReplyNamesSparseAndRejectsOtherMethods) {
  ServerFixture fx(quick_options("runawaymethod"));
  auto client = Client::connect_unix(fx.server().options().socket_path);

  // λ_m has one method, named in the reply.
  auto def = client.call("runaway");
  ASSERT_TRUE(def.at("ok").as_bool()) << def.dump();
  EXPECT_EQ(def.at("result").at("method").as_string(), "sparse");

  io::JsonValue sparse = io::JsonValue::make_object();
  sparse.set("method", io::JsonValue::make_string("sparse"));
  auto same = client.call("runaway", sparse);
  ASSERT_TRUE(same.at("ok").as_bool()) << same.dump();
  EXPECT_EQ(same.at("result").dump(), def.at("result").dump());

  io::JsonValue dense = io::JsonValue::make_object();
  dense.set("method", io::JsonValue::make_string("dense"));
  auto reply = client.call("runaway", dense);
  EXPECT_FALSE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("error").at("code").as_string(), "bad_request");
  EXPECT_NE(reply.at("error").at("message").as_string().find("'dense'"),
            std::string::npos);
}

TEST(Service, BadParamsAreStructuredErrors) {
  ServerFixture fx(quick_options("badparams"));
  auto client = Client::connect_unix(fx.server().options().socket_path);

  io::JsonValue params = io::JsonValue::make_object();
  params.set("chip", io::JsonValue::make_string("pentium"));
  auto reply = client.call("solve", params);
  EXPECT_FALSE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("error").at("code").as_string(), "bad_request");
  EXPECT_NE(reply.at("error").at("message").as_string().find("pentium"),
            std::string::npos);
}

TEST(Service, ExpiredDeadlineGetsStructuredTimeout) {
  ServerOptions o = quick_options("deadline");
  o.workers = 1;  // a single worker so a slow request blocks the queue
  ServerFixture fx(o);

  // Occupy the only worker for ~400 ms.
  std::thread blocker([&] {
    auto slow = Client::connect_unix(fx.server().options().socket_path);
    io::JsonValue params = io::JsonValue::make_object();
    params.set("delay_ms", io::JsonValue::make_number(400));
    (void)slow.call("ping", params);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // This request's 50 ms deadline expires while it waits in the queue.
  auto client = Client::connect_unix(fx.server().options().socket_path);
  auto reply = client.call("ping", io::JsonValue::make_null(), /*deadline_ms=*/50);
  blocker.join();
  EXPECT_FALSE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("error").at("code").as_string(), "deadline_exceeded");
  EXPECT_DOUBLE_EQ(reply.at("error").at("status").as_number(), 408.0);
}

TEST(Service, FullQueueShedsLoadInsteadOfBlocking) {
  ServerOptions o = quick_options("overload");
  o.workers = 1;
  o.queue_capacity = 1;
  ServerFixture fx(o);

  io::JsonValue slow_params = io::JsonValue::make_object();
  slow_params.set("delay_ms", io::JsonValue::make_number(600));

  // First request occupies the worker; second fills the 1-slot queue.
  std::thread t1([&] {
    auto c = Client::connect_unix(fx.server().options().socket_path);
    EXPECT_TRUE(c.call("ping", slow_params).at("ok").as_bool());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  std::thread t2([&] {
    auto c = Client::connect_unix(fx.server().options().socket_path);
    EXPECT_TRUE(c.call("ping", slow_params).at("ok").as_bool());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  // Third request finds the queue full and is rejected immediately.
  auto client = Client::connect_unix(fx.server().options().socket_path);
  const auto t0 = std::chrono::steady_clock::now();
  auto reply = client.call("ping");
  const double waited_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
          .count();
  t1.join();
  t2.join();
  EXPECT_FALSE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("error").at("code").as_string(), "overloaded");
  EXPECT_DOUBLE_EQ(reply.at("error").at("status").as_number(), 429.0);
  EXPECT_LT(waited_ms, 500.0);  // shed, not queued behind ~1.2 s of work
}

TEST(Service, ShutdownRequestDrainsAndStops) {
  ServerOptions o = quick_options("shutdown");
  o.workers = 1;
  Server server(o);
  std::thread runner([&] { server.run(); });

  // Queue a slow request, then ask for shutdown: the slow reply must still
  // arrive (drain-then-stop), and run() must return.
  std::thread slow_caller([&] {
    auto c = Client::connect_unix(o.socket_path);
    io::JsonValue params = io::JsonValue::make_object();
    params.set("delay_ms", io::JsonValue::make_number(300));
    auto reply = c.call("ping", params);
    EXPECT_TRUE(reply.at("ok").as_bool());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  auto client = Client::connect_unix(o.socket_path);
  auto reply = client.call("shutdown");
  EXPECT_TRUE(reply.at("ok").as_bool());
  EXPECT_TRUE(reply.at("result").at("stopping").as_bool());

  runner.join();
  slow_caller.join();
  // The socket is gone after shutdown.
  EXPECT_FALSE(std::filesystem::exists(o.socket_path));
  EXPECT_THROW(Client::connect_unix(o.socket_path), std::runtime_error);
}

TEST(Service, StatsReportsCacheAndLimits) {
  ServerOptions o = quick_options("stats");
  o.queue_capacity = 5;
  o.cache_capacity = 3;
  ServerFixture fx(o);
  auto client = Client::connect_unix(o.socket_path);
  auto reply = client.call("stats");
  ASSERT_TRUE(reply.at("ok").as_bool());
  EXPECT_DOUBLE_EQ(reply.at("result").at("queue_capacity").as_number(), 5.0);
  EXPECT_DOUBLE_EQ(reply.at("result").at("cache").at("capacity").as_number(), 3.0);
}

// ---------------------------------------------------------------------------
// PR 4: tracing, live metrics, flight recorder

TEST(Service, TraceIdEchoedOrGenerated) {
  ServerFixture fx(quick_options("traceid"));
  auto client = Client::connect_unix(fx.server().options().socket_path);

  auto echoed = io::parse_json(
      client.call_raw(R"({"id": 1, "method": "ping", "trace_id": "cli-abc"})"));
  ASSERT_TRUE(echoed.at("ok").as_bool());
  EXPECT_EQ(echoed.at("trace_id").as_string(), "cli-abc");

  auto generated = io::parse_json(client.call_raw(R"({"id": 2, "method": "ping"})"));
  ASSERT_TRUE(generated.at("ok").as_bool());
  EXPECT_EQ(generated.at("trace_id").as_string().rfind("srv-", 0), 0u);
  // Without `"trace": true` no span tree rides along.
  EXPECT_FALSE(generated.has("trace"));
}

TEST(Service, InlineTraceCarriesSolverSpans) {
  ServerFixture fx(quick_options("trace"));
  auto client = Client::connect_unix(fx.server().options().socket_path);

  auto reply = io::parse_json(client.call_raw(
      R"({"id": 1, "method": "solve", "params": {"chip": "alpha"}, "trace": true})"));
  ASSERT_TRUE(reply.at("ok").as_bool()) << reply.dump();
  ASSERT_TRUE(reply.has("trace"));
  const auto& trace = reply.at("trace");
  EXPECT_EQ(trace.at("trace_id").as_string(), reply.at("trace_id").as_string());
  EXPECT_GE(trace.at("span_count").as_number(), 2.0);

  const auto& roots = trace.at("spans").as_array();
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0].at("name").as_string(), "svc.request");
  EXPECT_GE(roots[0].at("dur_us").as_number(), 0.0);

  // Somewhere under svc.request the electro-thermal solve must appear.
  std::function<bool(const io::JsonValue&, const std::string&)> contains =
      [&](const io::JsonValue& span, const std::string& name) {
        if (span.at("name").as_string() == name) return true;
        if (!span.has("children")) return false;
        for (const auto& child : span.at("children").as_array())
          if (contains(child, name)) return true;
        return false;
      };
  EXPECT_TRUE(contains(roots[0], "et_solve")) << trace.dump();
}

TEST(Service, MetricsMethodServesJsonAndPrometheus) {
  ServerFixture fx(quick_options("metrics"));
  auto client = Client::connect_unix(fx.server().options().socket_path);
  ASSERT_TRUE(client.call("ping").at("ok").as_bool());

  auto json_reply = client.call("metrics");
  ASSERT_TRUE(json_reply.at("ok").as_bool()) << json_reply.dump();
  EXPECT_EQ(json_reply.at("result").at("format").as_string(), "json");
  const auto& metrics = json_reply.at("result").at("metrics");
  EXPECT_GE(metrics.at("counters").at("svc.requests.received").as_number(), 1.0);
  EXPECT_TRUE(metrics.at("gauges").has("svc.queue_depth"));
  EXPECT_GT(metrics.at("gauges").at("process.rss_bytes").as_number(), 0.0);

  io::JsonValue params = io::JsonValue::make_object();
  params.set("format", io::JsonValue::make_string("prometheus"));
  auto prom_reply = client.call("metrics", params);
  ASSERT_TRUE(prom_reply.at("ok").as_bool());
  const std::string text = prom_reply.at("result").at("text").as_string();
  EXPECT_NE(text.find("svc_requests_received_total"), std::string::npos);
  EXPECT_NE(text.find("# TYPE svc_latency_ms summary"), std::string::npos);
  EXPECT_NE(text.find("method=\"ping\""), std::string::npos);

  params.set("format", io::JsonValue::make_string("xml"));
  auto bad = client.call("metrics", params);
  EXPECT_FALSE(bad.at("ok").as_bool());
  EXPECT_EQ(bad.at("error").at("code").as_string(), "bad_request");
}

TEST(Service, RecentReportsCacheMissThenHit) {
  ServerFixture fx(quick_options("recent"));
  auto client = Client::connect_unix(fx.server().options().socket_path);

  io::JsonValue params = io::JsonValue::make_object();
  params.set("chip", io::JsonValue::make_string("alpha"));
  ASSERT_TRUE(client.call("solve", params).at("ok").as_bool());
  ASSERT_TRUE(client.call("solve", params).at("ok").as_bool());

  auto reply = client.call("recent");
  ASSERT_TRUE(reply.at("ok").as_bool()) << reply.dump();
  const auto& result = reply.at("result");
  EXPECT_DOUBLE_EQ(result.at("capacity").as_number(), 128.0);
  EXPECT_GE(result.at("total").as_number(), 2.0);

  const auto& records = result.at("requests").as_array();
  ASSERT_GE(records.size(), 2u);
  // Newest first: records[0] is the second (cached) solve.
  EXPECT_GT(records[0].at("seq").as_number(), records[1].at("seq").as_number());
  EXPECT_EQ(records[0].at("method").as_string(), "solve");
  EXPECT_EQ(records[0].at("chip").as_string(), "alpha");
  EXPECT_EQ(records[0].at("cache").as_string(), "hit");
  EXPECT_EQ(records[1].at("cache").as_string(), "miss");
  EXPECT_EQ(records[0].at("status").as_string(), "ok");
  EXPECT_GE(records[0].at("latency_ms").as_number(), 0.0);
  // The cache miss did real factorization work; the record shows it.
  EXPECT_GT(records[1].at("factorizations").as_number(), 0.0);
  EXPECT_GT(records[1].at("span_count").as_number(), 1.0);

  io::JsonValue limit = io::JsonValue::make_object();
  limit.set("count", io::JsonValue::make_number(1));
  auto limited = client.call("recent", limit);
  ASSERT_TRUE(limited.at("ok").as_bool());
  EXPECT_EQ(limited.at("result").at("requests").as_array().size(), 1u);

  limit.set("count", io::JsonValue::make_number(0));
  EXPECT_FALSE(client.call("recent", limit).at("ok").as_bool());
}

TEST(Service, StatsReportBuildAndProcessInfo) {
  ServerOptions o = quick_options("statsinfo");
  o.recorder_capacity = 7;
  ServerFixture fx(o);
  auto client = Client::connect_unix(o.socket_path);
  ASSERT_TRUE(client.call("ping").at("ok").as_bool());

  auto reply = client.call("stats");
  ASSERT_TRUE(reply.at("ok").as_bool());
  const auto& result = reply.at("result");
  EXPECT_FALSE(result.at("version").as_string().empty());
  EXPECT_FALSE(result.at("git").as_string().empty());
  EXPECT_DOUBLE_EQ(result.at("pid").as_number(), double(::getpid()));
  EXPECT_GE(result.at("uptime_s").as_number(), 0.0);
  EXPECT_GT(result.at("rss_bytes").as_number(), 0.0);
  EXPECT_DOUBLE_EQ(result.at("recorder").at("capacity").as_number(), 7.0);
  EXPECT_GE(result.at("recorder").at("total").as_number(), 1.0);
}

/// Collects records under a mutex so a worker-thread WARN can be polled for
/// from the test thread without racing an ostringstream.
class CaptureSink : public obs::Sink {
 public:
  void write(const obs::LogRecord& record) override {
    std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back(record.event);
    for (const auto& f : record.fields)
      if (f.key == "spans") spans_seen_ = true;
  }
  std::size_t count(const std::string& event) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t n = 0;
    for (const auto& e : events_) n += (e == event) ? 1 : 0;
    return n;
  }
  bool spans_seen() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_seen_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::string> events_;
  bool spans_seen_ = false;
};

TEST(Service, SlowRequestsEmitOneStructuredWarn) {
  const auto prior_level = obs::Logger::global().level();
  const auto prior_sinks = obs::Logger::global().sinks();
  auto sink = std::make_shared<CaptureSink>();
  obs::Logger::global().set_level(obs::Level::kWarn);
  obs::Logger::global().set_sinks({sink});

  {
    ServerOptions o = quick_options("slow");
    o.slow_ms = 20.0;
    ServerFixture fx(o);
    auto client = Client::connect_unix(o.socket_path);

    // Fast request: stays under the threshold, no WARN.
    ASSERT_TRUE(client.call("ping").at("ok").as_bool());

    io::JsonValue params = io::JsonValue::make_object();
    params.set("delay_ms", io::JsonValue::make_number(60));
    ASSERT_TRUE(client.call("ping", params).at("ok").as_bool());
    // The WARN is written after the reply is sent; the fixture dtor below
    // joins the workers, so by the end of this scope it has landed.
  }

  obs::Logger::global().set_level(prior_level);
  obs::Logger::global().set_sinks(prior_sinks);
  EXPECT_EQ(sink->count("svc_slow_request"), 1u);
  EXPECT_TRUE(sink->spans_seen());
}

TEST(Service, TraceFileRecordsEveryRequest) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("tfc_svc_trace_" + std::to_string(::getpid()) + ".jsonl"))
          .string();
  std::filesystem::remove(path);
  {
    ServerOptions o = quick_options("tracefile");
    o.trace_path = path;
    ServerFixture fx(o);
    auto client = Client::connect_unix(o.socket_path);
    ASSERT_TRUE(
        io::parse_json(client.call_raw(R"({"id": 1, "method": "ping", "trace_id": "t-9"})"))
            .at("ok")
            .as_bool());
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  auto entry = io::parse_json(line);
  EXPECT_EQ(entry.at("trace_id").as_string(), "t-9");
  EXPECT_EQ(entry.at("spans").as_array()[0].at("name").as_string(), "svc.request");
  std::filesystem::remove(path);
}

/// One-shot HTTP GET against 127.0.0.1:port; returns the full response.
std::string http_get(int port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request = "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  for (std::size_t sent = 0; sent < request.size();) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return "";
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char chunk[4096];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0)
    response.append(chunk, static_cast<std::size_t>(n));
  ::close(fd);
  return response;
}

TEST(Service, HttpMetricsEndpointServesPrometheusText) {
  ServerOptions o = quick_options("prom");
  o.prom_listen = "127.0.0.1:0";
  ServerFixture fx(o);
  ASSERT_GT(fx.server().prom_port(), 0);

  auto client = Client::connect_unix(o.socket_path);
  ASSERT_TRUE(client.call("ping").at("ok").as_bool());

  const std::string response = http_get(fx.server().prom_port(), "/metrics");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(response.find("# TYPE svc_requests_received_total counter"),
            std::string::npos);
  EXPECT_NE(response.find("process_uptime_seconds"), std::string::npos);

  const std::string missing = http_get(fx.server().prom_port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);

  // The scrape endpoint is read-only: the NDJSON side still works after it.
  EXPECT_TRUE(client.call("ping").at("ok").as_bool());
}

io::JsonValue alpha_solve_params(double current) {
  io::JsonValue params = io::JsonValue::make_object();
  params.set("chip", io::JsonValue::make_string("alpha"));
  params.set("current", io::JsonValue::make_number(current));
  return params;
}

TEST(Service, HealthMethodReportsGreenOverUnixAndTcp) {
  ServerOptions o = quick_options("health");
  o.listen = "127.0.0.1:0";
  o.audit_every = 1;        // audit every solve so the test is deterministic
  o.cross_check_every = 1;  // cross-check every audited cache hit
  ServerFixture fx(o);

  auto client = Client::connect_unix(o.socket_path);
  ASSERT_TRUE(client.call("solve", alpha_solve_params(1.5)).at("ok").as_bool());
  ASSERT_TRUE(client.call("solve", alpha_solve_params(1.5)).at("ok").as_bool());

  auto reply = client.call("health");
  ASSERT_TRUE(reply.at("ok").as_bool()) << reply.dump();
  const auto& result = reply.at("result");
  EXPECT_EQ(result.at("verdict").as_string(), "green");
  EXPECT_GE(result.at("samples").as_number(), 2.0);
  EXPECT_DOUBLE_EQ(result.at("violations").as_number(), 0.0);
  EXPECT_TRUE(result.at("offenders").as_array().empty());
  ASSERT_EQ(result.at("scopes").as_array().size(), 1u);
  const auto& scope = result.at("scopes").as_array()[0];
  EXPECT_NE(scope.at("scope").as_string().find("alpha"), std::string::npos);
  EXPECT_LT(scope.at("worst_rel_residual").as_number(), 1e-10);
  EXPECT_LT(scope.at("worst_energy_balance_rel").as_number(), 1e-8);
  EXPECT_GE(scope.at("cross_checks").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(scope.at("cross_check_failures").as_number(), 0.0);

  // The same surface over TCP: one service, one monitor, any transport.
  ASSERT_GT(fx.server().tcp_port(), 0);
  auto tcp = Client::connect_tcp("127.0.0.1", fx.server().tcp_port());
  auto tcp_reply = tcp.call("health");
  ASSERT_TRUE(tcp_reply.at("ok").as_bool());
  EXPECT_EQ(tcp_reply.at("result").at("verdict").as_string(), "green");
  EXPECT_EQ(tcp_reply.at("result").at("samples").as_number(),
            result.at("samples").as_number());
}

TEST(Service, InjectedDriftFlipsVerdictAndCountsViolations) {
  ServerOptions o = quick_options("inject");
  o.audit_every = 1;
  o.cross_check_every = 1;
  o.fault_injection = true;
  ServerFixture fx(o);
  auto client = Client::connect_unix(o.socket_path);

  const auto violations0 =
      obs::MetricsRegistry::global().counter("svc.audit.violations").value();

  ASSERT_TRUE(client.call("solve", alpha_solve_params(1.5)).at("ok").as_bool());
  EXPECT_EQ(fx.server().health().verdict(), obs::health::Verdict::kGreen);

  // Perturb the session's solved θ as a stale/corrupted cached factor
  // would: the next audited solve must fail its certificate and the CG
  // cross-check must see the drift.
  io::JsonValue inject = io::JsonValue::make_object();
  inject.set("chip", io::JsonValue::make_string("alpha"));
  inject.set("theta_offset_k", io::JsonValue::make_number(5.0));
  ASSERT_TRUE(client.call("inject", inject).at("ok").as_bool());
  ASSERT_TRUE(client.call("solve", alpha_solve_params(1.5)).at("ok").as_bool());

  auto reply = client.call("health");
  ASSERT_TRUE(reply.at("ok").as_bool());
  const auto& result = reply.at("result");
  EXPECT_EQ(result.at("verdict").as_string(), "red");
  ASSERT_EQ(result.at("offenders").as_array().size(), 1u);
  EXPECT_NE(result.at("offenders").as_array()[0].as_string().find("alpha"),
            std::string::npos);
  EXPECT_GE(result.at("violations").as_number(), 1.0);
  EXPECT_GE(
      obs::MetricsRegistry::global().counter("svc.audit.violations").value(),
      violations0 + 1);

  // The flight recorder carries the failing certificate columns.
  io::JsonValue limit = io::JsonValue::make_object();
  limit.set("limit", io::JsonValue::make_number(8));
  auto recent = client.call("recent", limit);
  ASSERT_TRUE(recent.at("ok").as_bool());
  bool saw_fail = false, saw_pass = false;
  for (const auto& r : recent.at("result").at("requests").as_array()) {
    const io::JsonValue* audit = r.get("audit");
    if (audit == nullptr || !audit->is_string()) continue;
    if (audit->as_string() == "fail") {
      saw_fail = true;
      EXPECT_GT(r.at("rel_residual").as_number(), 1e-6);
    }
    if (audit->as_string() == "pass") {
      saw_pass = true;
      EXPECT_LT(r.at("rel_residual").as_number(), 1e-10);
      EXPECT_LT(r.at("energy_balance_rel").as_number(), 1e-8);
    }
  }
  EXPECT_TRUE(saw_fail);
  EXPECT_TRUE(saw_pass);
}

TEST(Service, InjectIsRejectedUnlessEnabled) {
  ServerFixture fx(quick_options("noinject"));
  auto client = Client::connect_unix(fx.server().options().socket_path);
  io::JsonValue params = io::JsonValue::make_object();
  params.set("chip", io::JsonValue::make_string("alpha"));
  auto reply = client.call("inject", params);
  EXPECT_FALSE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("error").at("code").as_string(), "bad_request");
  EXPECT_NE(reply.at("error").at("message").as_string().find("disabled"),
            std::string::npos);
}

TEST(Service, AuditDisabledRecordsNothing) {
  ServerOptions o = quick_options("noaudit");
  o.audit_every = 0;
  ServerFixture fx(o);
  auto client = Client::connect_unix(o.socket_path);
  ASSERT_TRUE(client.call("solve", alpha_solve_params(1.5)).at("ok").as_bool());

  auto reply = client.call("health");
  ASSERT_TRUE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("result").at("verdict").as_string(), "green");
  EXPECT_DOUBLE_EQ(reply.at("result").at("samples").as_number(), 0.0);
  EXPECT_TRUE(reply.at("result").at("scopes").as_array().empty());
}

// --- streaming `simulate` ---------------------------------------------------

/// One streamed exchange: send a `simulate` request, collect every non-final
/// frame line, and return the final reply. Frames are NDJSON objects carrying
/// {"id", "frame", "final": false, "sim": {...}}.
struct StreamedRun {
  std::vector<io::JsonValue> frames;
  io::JsonValue final;
};

StreamedRun run_simulate(Client& client, const io::JsonValue& params, double id = 7.0,
                         double deadline_ms = 0.0) {
  io::JsonValue request = io::JsonValue::make_object();
  request.set("id", io::JsonValue::make_number(id));
  request.set("method", io::JsonValue::make_string("simulate"));
  request.set("params", params);
  if (deadline_ms > 0.0) {
    request.set("deadline_ms", io::JsonValue::make_number(deadline_ms));
  }
  client.send_raw(request.dump());

  StreamedRun run;
  while (true) {
    io::JsonValue line = io::parse_json(client.read_line());
    if (line.has("ok")) {
      run.final = std::move(line);
      return run;
    }
    run.frames.push_back(std::move(line));
  }
}

io::JsonValue simulate_params(double steps, double frame_every) {
  io::JsonValue params = io::JsonValue::make_object();
  params.set("chip", io::JsonValue::make_string("alpha"));
  params.set("steps", io::JsonValue::make_number(steps));
  params.set("frame_every", io::JsonValue::make_number(frame_every));
  return params;
}

TEST(Service, SimulateStreamsSeqNumberedFramesOverUnix) {
  ServerFixture fx(quick_options("simulate"));
  auto client = Client::connect_unix(fx.server().options().socket_path);

  auto run = run_simulate(client, simulate_params(40, 10));

  // Frames at steps 0, 10, 20, 30 and the final step 39 — all emitted before
  // the final reply, each echoing the request id, seq-numbered from 0.
  ASSERT_EQ(run.frames.size(), 5u);
  for (std::size_t k = 0; k < run.frames.size(); ++k) {
    const auto& f = run.frames[k];
    EXPECT_DOUBLE_EQ(f.at("id").as_number(), 7.0);
    EXPECT_FALSE(f.at("final").as_bool());
    EXPECT_DOUBLE_EQ(f.at("frame").as_number(), double(k));
    EXPECT_DOUBLE_EQ(f.at("sim").at("seq").as_number(), double(k));
    EXPECT_GT(f.at("sim").at("peak_k").as_number(), 300.0);
  }
  EXPECT_DOUBLE_EQ(run.frames.back().at("sim").at("step").as_number(), 39.0);

  // The final reply is the DTM summary.
  ASSERT_TRUE(run.final.at("ok").as_bool()) << run.final.dump();
  const auto& result = run.final.at("result");
  EXPECT_EQ(result.at("chip").as_string(), "alpha");
  EXPECT_DOUBLE_EQ(result.at("summary").at("frames").as_number(), 5.0);
  EXPECT_DOUBLE_EQ(result.at("summary").at("steps").as_number(), 40.0);
  EXPECT_FALSE(result.at("summary").at("aborted").as_bool());

  // The connection survives the stream, and the flight record counts frames.
  auto recent = client.call("recent");
  ASSERT_TRUE(recent.at("ok").as_bool());
  bool found = false;
  for (const auto& r : recent.at("result").at("requests").as_array()) {
    if (r.string_or("method", "") == "simulate") {
      EXPECT_DOUBLE_EQ(r.at("frames").as_number(), 5.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Service, SimulateStreamsOverTcp) {
  ServerOptions o;
  o.listen = "127.0.0.1:0";
  o.workers = 1;
  ServerFixture fx(o);
  auto client = Client::connect_tcp("127.0.0.1", fx.server().tcp_port());

  auto run = run_simulate(client, simulate_params(20, 10), /*id=*/3.0);
  ASSERT_EQ(run.frames.size(), 3u);  // steps 0, 10, 19
  EXPECT_DOUBLE_EQ(run.frames[0].at("id").as_number(), 3.0);
  ASSERT_TRUE(run.final.at("ok").as_bool()) << run.final.dump();
  EXPECT_DOUBLE_EQ(run.final.at("result").at("summary").at("frames").as_number(), 3.0);
}

TEST(Service, SimulateFramesByteIdenticalAcrossWorkerCounts) {
  auto render = [](std::size_t workers, const std::string& tag) {
    ServerOptions o = quick_options(tag);
    o.workers = workers;
    ServerFixture fx(o);
    auto client = Client::connect_unix(o.socket_path);
    io::JsonValue params = simulate_params(30, 5);
    params.set("tiles", io::JsonValue::make_bool(true));
    auto run = run_simulate(client, params);
    std::string text;
    for (const auto& f : run.frames) {
      text += f.at("sim").dump();
      text += '\n';
    }
    text += run.final.at("result").dump();
    return text;
  };
  EXPECT_EQ(render(1, "det1"), render(4, "det4"));
}

TEST(Service, SimulateDeadlineExpiresMidStream) {
  ServerFixture fx(quick_options("simdeadline"));
  auto client = Client::connect_unix(fx.server().options().socket_path);

  // Warm the session cache so the deadline budget is spent streaming, not
  // designing the deployment.
  ASSERT_EQ(run_simulate(client, simulate_params(1, 1)).frames.size(), 1u);

  // 100k steps streamed one frame per step cannot finish in 300 ms: the
  // stream stops mid-run and the final line is a structured deadline error.
  auto run = run_simulate(client, simulate_params(100000, 1), /*id=*/9.0,
                          /*deadline_ms=*/300.0);
  EXPECT_FALSE(run.final.at("ok").as_bool());
  EXPECT_EQ(run.final.at("error").at("code").as_string(), "deadline_exceeded");
  EXPECT_DOUBLE_EQ(run.final.at("id").as_number(), 9.0);
  EXPECT_NE(run.final.at("error").at("message").as_string().find("mid-stream"),
            std::string::npos);
  // It streamed before it died, and every frame stayed seq-consistent.
  EXPECT_GT(run.frames.size(), 0u);
  for (std::size_t k = 0; k < run.frames.size(); ++k) {
    EXPECT_DOUBLE_EQ(run.frames[k].at("frame").as_number(), double(k));
  }
}

TEST(Service, SimulateValidatesParams) {
  ServerFixture fx(quick_options("simbad"));
  auto client = Client::connect_unix(fx.server().options().socket_path);

  auto bad_steps = run_simulate(client, simulate_params(0, 10));
  EXPECT_TRUE(bad_steps.frames.empty());
  EXPECT_FALSE(bad_steps.final.at("ok").as_bool());
  EXPECT_EQ(bad_steps.final.at("error").at("code").as_string(), "bad_request");

  io::JsonValue bad_dt = simulate_params(10, 5);
  bad_dt.set("dt", io::JsonValue::make_number(-1.0));
  auto run = run_simulate(client, bad_dt);
  EXPECT_FALSE(run.final.at("ok").as_bool());
  EXPECT_EQ(run.final.at("error").at("code").as_string(), "bad_request");
}

}  // namespace
}  // namespace tfc::svc
