/// \file svc_mix.cpp
/// \brief Workload svc_mix: an in-process svc::Server (2 workers, default
/// cache and audit settings, unix socket) driven by two closed-loop
/// svc::Client connections over five warmed sessions. One op is one request;
/// the seeded mix is 70% solve, 10% sweep, 8% runaway, 7% design and 5%
/// streamed simulate. The request path the service items change.

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <thread>

#include "harness.h"
#include "io/design_json.h"
#include "io/json.h"
#include "svc/client.h"
#include "svc/server.h"
#include "tec/electro_thermal.h"
#include "thermal/package.h"

namespace perfbench {
namespace {

using tfc::io::JsonValue;

constexpr const char* kChips[] = {"alpha", "hc1", "hc5", "hc7", "hc10"};
constexpr std::size_t kChipCount = sizeof(kChips) / sizeof(kChips[0]);
constexpr std::size_t kClients = 2;
constexpr std::size_t kPlannedOps = 1 << 16;
constexpr std::size_t kSweepPoints = 26;  // the sweep default: 25 intervals
constexpr std::size_t kSimSteps = 200;
// Every 10th step (the frame_every default) emits a frame, and so does the
// final step.
constexpr std::size_t kSimFrames = kSimSteps / 10 + 1;

enum class Method { kSolve, kSweep, kRunaway, kDesign, kSimulate };

const char* method_name(Method m) {
  switch (m) {
    case Method::kSolve: return "solve";
    case Method::kSweep: return "sweep";
    case Method::kRunaway: return "runaway";
    case Method::kDesign: return "design";
    case Method::kSimulate: return "simulate";
  }
  return "?";
}

struct Request {
  Method method = Method::kSolve;
  std::size_t chip = 0;
  double current_a = 0.0;
};

std::string describe(const Request& r) {
  std::string s = std::string("method=") + method_name(r.method) + " chip=" + kChips[r.chip];
  if (r.method == Method::kSolve) s += " current_a=" + std::to_string(r.current_a);
  return s;
}

bool is_number(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.get(key);
  return v != nullptr && v->is_number();
}

bool is_array_of(const JsonValue& obj, const char* key, std::size_t n) {
  const JsonValue* v = obj.get(key);
  return v != nullptr && v->is_array() && v->as_array().size() == n;
}

class SvcMix final : public Workload {
 public:
  explicit SvcMix(std::uint64_t seed) : seed_(seed) {}
  ~SvcMix() override { teardown(); }

  const char* name() const override { return "svc_mix"; }
  double nominal_ops_per_s() const override { return 255.0; }
  std::size_t op_cycle() const override { return kClients; }

  std::string setup() override {
    teardown();
    std::filesystem::create_directories(".bench_out");
    // Relative, so the path fits sun_path wherever the checkout lives.
    socket_path_ = ".bench_out/svc-" + std::to_string(::getpid()) + ".sock";
    tfc::svc::ServerOptions opts;
    opts.socket_path = socket_path_;
    opts.workers = 2;
    server_ = std::make_unique<tfc::svc::Server>(opts);
    serving_ = std::thread([this] { server_->run(); });
    for (std::size_t c = 0; c < kClients; ++c) {
      clients_.push_back(tfc::svc::Client::connect_unix(socket_path_));
      clients_.back().set_receive_timeout_ms(120000.0);
    }
    for (const char* chip : kChips) {
      JsonValue params = JsonValue::make_object();
      params.set("chip", JsonValue::make_string(chip));
      const JsonValue reply = clients_[0].call("solve", params);
      if (!reply.bool_or("ok", false)) return std::string("warm-up solve failed: ") + reply.dump();
    }
    plans_.assign(kClients, {});
    for (std::size_t c = 0; c < kClients; ++c) {
      Rng rng(seed_, 10 + c);
      for (std::size_t k = 0; k < kPlannedOps; ++k) {
        Request r;
        const double u = rng.uniform(0.0, 1.0);
        r.method = u < 0.70   ? Method::kSolve
                   : u < 0.80 ? Method::kSweep
                   : u < 0.88 ? Method::kRunaway
                   : u < 0.95 ? Method::kDesign
                              : Method::kSimulate;
        r.chip = rng.below(kChipCount);
        r.current_a = rng.uniform(0.0, 5.0);
        plans_[c].push_back(r);
      }
    }
    std::lock_guard<std::mutex> lock(replies_mutex_);
    first_replies_.clear();
    return "";
  }

  PhaseResult run(const Budget& budget) override {
    std::vector<PhaseResult> parts(kClients);
    std::vector<std::vector<std::size_t>> chips(kClients);
    records_.clear();
    missed_records_ = 0;
    const bool traced = SpanLog::global().enabled();
    const std::uint64_t first_seq = server_->recorder().total_added();
    std::atomic<bool> stop_poll{false};
    std::uint64_t last_seq = first_seq;
    std::thread poller;
    if (traced) {
      poller = std::thread([&] {
        while (!stop_poll.load()) {
          poll_records(last_seq);
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
      });
    }
    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        Budget mine = budget;
        if (budget.ops > 0) mine.ops = (budget.ops + kClients - 1 - c) / kClients;
        parts[c] = run_closed_loop(
            name(), mine,
            [&, c](std::size_t k) {
              const Request& r = plans_[c][k % kPlannedOps];
              chips[c].push_back(r.chip);
              return request(c, k, r);
            },
            [&, c](std::size_t k) {
              return "client=" + std::to_string(c) + " " + describe(plans_[c][k % kPlannedOps]);
            });
      });
    }
    for (auto& t : threads) t.join();
    PhaseResult all;
    all.wall_s = ms_since(t0) / 1e3;
    if (traced) {
      stop_poll.store(true);
      poller.join();
      poll_records(last_seq);
      missed_records_ = (server_->recorder().total_added() - first_seq) - records_.size();
    }
    op_chips_.clear();
    for (std::size_t c = 0; c < kClients; ++c) {
      all.latencies_ms.insert(all.latencies_ms.end(), parts[c].latencies_ms.begin(),
                              parts[c].latencies_ms.end());
      all.attempted += parts[c].attempted;
      all.failed += parts[c].failed;
      op_chips_.insert(op_chips_.end(), chips[c].begin(), chips[c].end());
    }
    client_ms_ = all.latencies_ms;
    return all;
  }

  void layer_metrics(const TraceWindow& w, MetricMap& out) override {
    const double ops = double(std::max<std::size_t>(w.ops, 1));
    out["svc.client_ms.p50"] = client_ms_.empty() ? 0.0 : percentile(client_ms_, 50.0);
    std::vector<double> server_ms, queue_ms;
    double service_ms = 0.0;
    for (const auto& rec : records_) {
      server_ms.push_back(rec.latency_ms);
      queue_ms.push_back(rec.queue_wait_ms);
      service_ms += rec.latency_ms - rec.queue_wait_ms;
    }
    out["svc.server_ms.p50"] = server_ms.empty() ? 0.0 : percentile(server_ms, 50.0);
    out["svc.queue_wait_ms.p50"] = queue_ms.empty() ? 0.0 : percentile(queue_ms, 50.0);
    out["svc.queue_wait_ms.p99"] = queue_ms.empty() ? 0.0 : percentile(queue_ms, 99.0);
    double dispatch_ns = 0.0;
    for (const auto& s : w.by_name) {
      if (s.name.rfind("svc.", 0) == 0) dispatch_ns += double(s.self_ns);
    }
    out["svc.dispatch.self_ms_per_op"] = dispatch_ns / 1e6 / ops;
    const double hits = double(w.counter("svc.cache.hits"));
    const double misses = double(w.counter("svc.cache.misses"));
    out["svc.cache_hit_ratio"] = hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
    out["svc.stream.frames_per_op"] = double(w.counter("svc.stream.frames")) / ops;
    // The base of the attributed share is server request time: arrival to
    // reply, less queue wait. Named time is what the svc.request span covers.
    const double request_span_ms = double(w.stat("svc.request").total_ns) / 1e6;
    out["obs.attributed_share"] = service_ms > 0.0 ? request_span_ms / service_ms : 0.0;
    out["svc.recorder_missed"] = double(missed_records_);

    const auto fills = session_fill();
    double l = 0.0, fill = 0.0;
    for (std::size_t chip : op_chips_) {
      l += fills[chip].nnz;
      fill += fills[chip].ratio;
    }
    const double n = double(std::max<std::size_t>(op_chips_.size(), 1));
    out["linalg.factor_nnz"] = l / n;
    out["linalg.fill_ratio"] = fill / n;
  }

 private:
  void teardown() {
    clients_.clear();
    if (server_ != nullptr) {
      server_->request_stop();
      if (serving_.joinable()) serving_.join();
      server_.reset();
    }
  }

  void poll_records(std::uint64_t& last_seq) {
    auto& recorder = server_->recorder();
    const auto recent = recorder.recent(recorder.capacity());
    std::uint64_t newest = last_seq;
    for (const auto& rec : recent) {
      if (rec.seq > last_seq) {
        records_.push_back(rec);
        newest = std::max(newest, rec.seq);
      }
    }
    last_seq = newest;
  }

  /// nnz(L) and fill ratio of each session's G - i*D pattern, from the
  /// deployment its design reply reports.
  std::vector<Fill> session_fill() {
    std::vector<Fill> out;
    for (const char* chip : kChips) {
      JsonValue params = JsonValue::make_object();
      params.set("chip", JsonValue::make_string(chip));
      const JsonValue reply = clients_[0].call("design", params);
      const auto design = tfc::io::design_result_from_json(reply.at("result").dump());
      const tfc::thermal::PackageGeometry geometry;
      const auto sys = tfc::tec::ElectroThermalSystem::assemble(
          geometry, design.deployment,
          tfc::linalg::Vector(geometry.tile_rows * geometry.tile_cols, 0.0),
          tfc::tec::TecDeviceParams::chowdhury_superlattice());
      out.push_back(factor_fill(sys));
    }
    return out;
  }

  OpOutcome request(std::size_t c, std::size_t k, const Request& r) {
    tfc::svc::Client& client = clients_[c];
    JsonValue params = JsonValue::make_object();
    params.set("chip", JsonValue::make_string(kChips[r.chip]));
    if (r.method == Method::kSolve) params.set("current", JsonValue::make_number(r.current_a));
    if (r.method == Method::kSimulate) {
      params.set("steps", JsonValue::make_number(double(kSimSteps)));
    }

    OpOutcome out;
    JsonValue reply;
    std::size_t frames = 0;
    bool frames_ok = true;
    {
      BenchSpan op_span("svc_mix.op", k);
      BenchSpan call("client.call", k);
      const auto t0 = Clock::now();
      if (r.method != Method::kSimulate) {
        reply = client.call(method_name(r.method), params);
      } else {
        JsonValue line = JsonValue::make_object();
        line.set("id", JsonValue::make_string("sim-" + std::to_string(c) + "-" +
                                              std::to_string(k)));
        line.set("method", JsonValue::make_string("simulate"));
        line.set("params", params);
        client.send_raw(line.dump());
        while (true) {
          const std::string text = client.read_line();
          {
            BenchSpan sink("io.frame_json", k);
            reply = tfc::io::parse_json(text);
          }
          if (reply.has("ok")) break;
          frames_ok = frames_ok && reply.number_or("frame", -1.0) == double(frames) &&
                      !reply.bool_or("final", true) && reply.has("sim");
          ++frames;
        }
      }
      out.ms = ms_since(t0);
    }
    out.error = check(r, reply, frames, frames_ok);
    return out;
  }

  std::string check(const Request& r, const JsonValue& reply, std::size_t frames,
                    bool frames_ok) {
    if (!reply.bool_or("ok", false)) return "error reply: " + reply.dump();
    const JsonValue* result = reply.get("result");
    if (result == nullptr || !result->is_object()) return "reply without a result object";
    const JsonValue& res = *result;
    const bool own_chip = res.string_or("chip", "") == kChips[r.chip];
    switch (r.method) {
      case Method::kSolve:
        if (!own_chip || res.number_or("current_a", -1.0) != r.current_a ||
            !is_number(res, "peak_celsius") || !is_number(res, "tec_power_w") ||
            !(res.number_or("tec_count", 0.0) >= 1.0) ||
            !(res.number_or("lambda_m_a", 0.0) > r.current_a)) {
          return "solve reply fields: " + res.dump();
        }
        return "";
      case Method::kSweep:
        if (!own_chip || !is_number(res, "lambda_m_a") ||
            !is_array_of(res, "current_a", kSweepPoints) ||
            !is_array_of(res, "peak_celsius", kSweepPoints) ||
            !is_array_of(res, "tec_power_w", kSweepPoints)) {
          return "sweep reply fields: " + res.dump();
        }
        return "";
      case Method::kRunaway:
        if (!own_chip || !res.has("method") || !is_number(res, "tec_count") ||
            !is_number(res, "lambda_m_a")) {
          return "runaway reply fields: " + res.dump();
        }
        return same_as_first(r, res);
      case Method::kDesign:
        if (!own_chip || !res.bool_or("success", false) || !res.has("deployment")) {
          return "design reply fields: " + res.dump();
        }
        return same_as_first(r, res);
      case Method::kSimulate: {
        const JsonValue* summary = res.get("summary");
        if (!frames_ok || frames != kSimFrames) {
          return std::to_string(frames) + " frames, want " + std::to_string(kSimFrames);
        }
        if (!own_chip || summary == nullptr ||
            summary->number_or("steps", 0.0) != double(kSimSteps)) {
          return "simulate reply fields: " + res.dump();
        }
        return "";
      }
    }
    return "";
  }

  /// Repeated design and runaway replies for one chip must be byte-identical.
  std::string same_as_first(const Request& r, const JsonValue& result) {
    const std::string text = result.dump();
    std::lock_guard<std::mutex> lock(replies_mutex_);
    const auto [it, first] =
        first_replies_.emplace(std::make_pair(int(r.method), r.chip), text);
    return first || it->second == text ? "" : "reply differs from an earlier one";
  }

  std::uint64_t seed_;
  std::string socket_path_;
  std::unique_ptr<tfc::svc::Server> server_;
  std::thread serving_;
  std::vector<tfc::svc::Client> clients_;
  std::vector<std::vector<Request>> plans_;

  std::mutex replies_mutex_;
  std::map<std::pair<int, std::size_t>, std::string> first_replies_;

  std::vector<tfc::obs::RequestRecord> records_;
  std::size_t missed_records_ = 0;
  std::vector<double> client_ms_;
  std::vector<std::size_t> op_chips_;
};

}  // namespace

std::unique_ptr<Workload> make_svc_mix(std::uint64_t seed) {
  return std::make_unique<SvcMix>(seed);
}

}  // namespace perfbench
