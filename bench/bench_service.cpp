/// \file bench_service.cpp
/// \brief Load generator for the tfc::svc solver service.
///
/// Runs an in-process Server on a temp unix socket and drives it with
/// concurrent clients through the same protocol path `tfcool request` uses:
///
///   ping         — protocol + scheduling overhead floor (no solver work)
///   solve_cached — repeat solves answered from the warmed session cache,
///                  i.e. the steady-state cost of a production query
///
/// Per-scenario throughput and client-observed p50/p95/p99 latency go to
/// stdout and `BENCH_service.json` for the CI regression gate
/// (tools/check_bench_regression.py --service-baseline ...). The file is
/// headed like `BENCH_runtime.json`: compiler, build type, `git describe`
/// and the host's hardware threads.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/build_info.h"
#include "svc/client.h"
#include "svc/server.h"

namespace {

using Clock = std::chrono::steady_clock;

struct ScenarioResult {
  std::string name;
  std::size_t threads = 0;
  std::size_t requests = 0;
  double wall_s = 0.0;
  double throughput_rps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * double(sorted.size() - 1);
  const std::size_t lo = std::size_t(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - double(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

/// Fire `per_thread` requests from each of `threads` clients; every request
/// runs `one_call(client, k)` and its round-trip time is recorded.
ScenarioResult run_scenario(
    const std::string& name, const std::string& socket_path, std::size_t threads,
    std::size_t per_thread,
    const std::function<void(tfc::svc::Client&, std::size_t)>& one_call) {
  std::vector<std::vector<double>> latencies(threads);
  std::vector<std::thread> pool;
  const auto t0 = Clock::now();
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      auto client = tfc::svc::Client::connect_unix(socket_path);
      latencies[t].reserve(per_thread);
      for (std::size_t k = 0; k < per_thread; ++k) {
        const auto start = Clock::now();
        one_call(client, k);
        latencies[t].push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - start).count());
      }
    });
  }
  for (auto& th : pool) th.join();
  const double wall_s = std::chrono::duration<double>(Clock::now() - t0).count();

  std::vector<double> all;
  for (const auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());

  ScenarioResult r;
  r.name = name;
  r.threads = threads;
  r.requests = all.size();
  r.wall_s = wall_s;
  r.throughput_rps = double(all.size()) / std::max(wall_s, 1e-9);
  r.p50_ms = percentile(all, 0.50);
  r.p95_ms = percentile(all, 0.95);
  r.p99_ms = percentile(all, 0.99);
  return r;
}

}  // namespace

int main() {
  using namespace tfc;

  const std::string socket_path =
      (std::filesystem::temp_directory_path() /
       ("tfc_bench_service_" + std::to_string(::getpid()) + ".sock"))
          .string();

  svc::ServerOptions opts;
  opts.socket_path = socket_path;
  opts.workers = 4;
  opts.queue_capacity = 256;
  opts.cache_capacity = 8;
  svc::Server server(opts);
  std::thread serving([&] { server.run(); });

  const std::vector<std::string> chips = {"alpha", "hc1", "hc2"};
  {
    // Warm the session cache so solve_cached measures steady state, not the
    // one-time design cost.
    auto client = svc::Client::connect_unix(socket_path);
    for (const auto& chip : chips) {
      io::JsonValue params = io::JsonValue::make_object();
      params.set("chip", io::JsonValue::make_string(chip));
      auto reply = client.call("solve", params);
      if (!reply.bool_or("ok", false)) {
        std::fprintf(stderr, "warm-up solve failed for %s: %s\n", chip.c_str(),
                     reply.dump().c_str());
        server.request_stop();
        serving.join();
        return 1;
      }
    }
  }

  const std::size_t threads = 4;
  std::vector<ScenarioResult> results;

  results.push_back(run_scenario(
      "ping", socket_path, threads, /*per_thread=*/500,
      [](svc::Client& client, std::size_t) { (void)client.call("ping"); }));

  results.push_back(run_scenario(
      "solve_cached", socket_path, threads, /*per_thread=*/100,
      [&](svc::Client& client, std::size_t k) {
        io::JsonValue params = io::JsonValue::make_object();
        params.set("chip", io::JsonValue::make_string(chips[k % chips.size()]));
        (void)client.call("solve", params);
      }));

  const std::uint64_t hits = server.cache().hits();
  const std::uint64_t misses = server.cache().misses();
  server.request_stop();
  serving.join();
  std::filesystem::remove(socket_path);

  std::printf("=== tfc::svc service throughput (%zu workers, %zu client threads) ===\n\n",
              opts.workers, threads);
  std::printf("%-14s %9s %10s %12s %9s %9s %9s\n", "scenario", "requests", "wall[s]",
              "rps", "p50[ms]", "p95[ms]", "p99[ms]");
  for (const auto& r : results) {
    std::printf("%-14s %9zu %10.2f %12.0f %9.3f %9.3f %9.3f\n", r.name.c_str(),
                r.requests, r.wall_s, r.throughput_rps, r.p50_ms, r.p95_ms, r.p99_ms);
  }
  std::printf("\nsession cache: %llu hits / %llu misses\n",
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(misses));

  {
    std::ofstream out("BENCH_service.json");
    out << "{\"bench\":\"service\",\"compiler\":\"" << TFC_BUILD_COMPILER
        << "\",\"build_type\":\"" << TFC_BUILD_TYPE << "\",\"git_describe\":\""
        << TFC_BUILD_GIT_DESCRIBE
        << "\",\"hardware_threads\":" << std::thread::hardware_concurrency()
        << ",\"workers\":" << opts.workers
        << ",\"client_threads\":" << threads << ",\"scenarios\":{";
    for (std::size_t k = 0; k < results.size(); ++k) {
      const auto& r = results[k];
      if (k != 0) out << ',';
      out << '"' << r.name << "\":{\"requests\":" << r.requests
          << ",\"wall_s\":" << r.wall_s << ",\"throughput_rps\":" << r.throughput_rps
          << ",\"p50_ms\":" << r.p50_ms << ",\"p95_ms\":" << r.p95_ms
          << ",\"p99_ms\":" << r.p99_ms << '}';
    }
    out << "},\"cache\":{\"hits\":" << hits << ",\"misses\":" << misses << "}}\n";
    std::printf("wrote BENCH_service.json\n");
  }

  // Sanity floor: every solve after warm-up must have been a cache hit.
  return misses == chips.size() ? 0 : 1;
}
