/// \file main.cpp
/// \brief The perfbench program: one run of one workload.
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///
/// --trace 0 times setup (repeated; the median is reported), then runs the
/// workload's closed loop for S seconds with tracing off and prints the
/// end-to-end metrics. --trace 1 runs a fixed op sequence three times —
/// untraced, traced (benchmark spans, the obs::prof profiler and one
/// metrics-registry window), untraced again — and prints the per-layer
/// metrics; it also writes the spans and a collapsed-stack profile under
/// .bench_out/. The last stdout line is the
/// result object; the line before it carries the run's notes (op count, tail
/// percentile, setup repetitions, host-speed reference).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "io/json.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "par/thread_pool.h"

namespace {

using namespace perfbench;
using tfc::io::JsonValue;

constexpr int kSetupReps = 5;

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},       {"op_p50_ms", "ms"},    {"op_tail_ms", "ms"},
    {"ops_per_s", "1/s"},   {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"linalg.sparse_refactor.ms_per_op", "ms"},
    {"linalg.sparse_refactor.calls_per_op", "count"},
    {"linalg.sparse_refactor.not_pd_ratio", "ratio"},
    {"linalg.sparse_analyze.ms_per_op", "ms"},
    {"linalg.sparse_analyze.calls_per_op", "count"},
    {"linalg.sparse_solve.ms_per_op", "ms"},
    {"linalg.sparse_solve.calls_per_op", "count"},
    {"linalg.factor_nnz", "count"},
    {"linalg.fill_ratio", "ratio"},
    {"thermal.assemble.ms_per_op", "ms"},
    {"thermal.assemble.calls_per_op", "count"},
    {"tec.schur_reduction.ms_per_op", "ms"},
    {"tec.pencil_bisection.ms_per_op", "ms"},
    {"tec.runaway_limit.calls_per_op", "count"},
    {"engine.engine_probe.calls_per_op", "count"},
    {"engine.engine_restamp_incremental.ms_per_op", "ms"},
    {"engine.audit.violations_per_op", "count"},
    {"core.greedy_deploy.ms_per_op", "ms"},
    {"core.optimize_current.ms_per_op", "ms"},
    {"core.full_cover.ms_per_op", "ms"},
    {"core.greedy.accept_ratio", "ratio"},
    {"sim.build.ms_per_op", "ms"},
    {"sim.step.ms_per_op", "ms"},
    {"sim.rasterize.ms_per_op", "ms"},
    {"sim.control.ms_per_op", "ms"},
    {"sim.distinct_currents_per_op", "count"},
    {"io.frame_json.ms_per_op", "ms"},
    {"power.worst_case_map.ms", "ms"},
    {"svc.client_ms.p50", "ms"},
    {"svc.server_ms.p50", "ms"},
    {"svc.queue_wait_ms.p50", "ms"},
    {"svc.queue_wait_ms.p99", "ms"},
    {"svc.dispatch.self_ms_per_op", "ms"},
    {"svc.cache_hit_ratio", "ratio"},
    {"svc.stream.frames_per_op", "count"},
    {"obs.trace_overhead_pct", "%"},
    {"obs.attributed_share", "ratio"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "design_table1|mesh40_solve|dtm_scenario|svc_mix --seed N --seconds S "
               "--trace 0|1\n",
               why);
  return 2;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "design_table1") return make_design_table1(seed);
  if (name == "mesh40_solve") return make_mesh40_solve(seed);
  if (name == "dtm_scenario") return make_dtm_scenario(seed);
  if (name == "svc_mix") return make_svc_mix(seed);
  return nullptr;
}

/// The highest whole percentile with at least ten ops beyond it at the
/// nominal op count of an S-second run.
double tail_percentile(const Workload& w, double seconds) {
  const double expected = seconds * w.nominal_ops_per_s();
  return std::clamp(std::floor(100.0 * (1.0 - 10.0 / expected)), 50.0, 99.0);
}

/// Ops in each of the three passes of a traced run: about S/3 seconds at the
/// nominal rate, in whole input cycles, so a pass covers a balanced input mix
/// and the same seed always gives the same op count.
std::size_t traced_ops(const Workload& w, double seconds) {
  const std::size_t cycle = w.op_cycle();
  const double ops = seconds * w.nominal_ops_per_s() / 3.0;
  return std::max<std::size_t>(1, std::size_t(std::llround(ops / double(cycle)))) * cycle;
}

/// Per-layer metrics every workload shares: profiler span totals and
/// metrics-registry counters, per op of the traced pass.
MetricMap generic_layer_metrics(const std::string& workload, const TraceWindow& w) {
  const double ops = double(std::max<std::size_t>(w.ops, 1));
  const auto ms = [&](std::initializer_list<const char*> names) {
    double ns = 0.0;
    for (const char* n : names) ns += double(w.stat(n).total_ns);
    return ns / 1e6 / ops;
  };
  const auto calls = [&](std::initializer_list<const char*> names) {
    double c = 0.0;
    for (const char* n : names) c += double(w.stat(n).count);
    return c / ops;
  };
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };

  MetricMap m;
  for (const MetricDef& d : kPerLayer) m[d.name] = 0.0;
  m["linalg.sparse_refactor.ms_per_op"] = ms({"sparse_refactor"});
  m["linalg.sparse_refactor.calls_per_op"] = calls({"sparse_refactor"});
  m["linalg.sparse_refactor.not_pd_ratio"] =
      ratio(double(w.counter("cholesky.sparse.not_pd")),
            double(w.counter("cholesky.sparse.refactors") + w.counter("cholesky.sparse.factors")));
  m["linalg.sparse_analyze.ms_per_op"] = ms({"sparse_analyze"});
  m["linalg.sparse_analyze.calls_per_op"] = calls({"sparse_analyze"});
  m["linalg.sparse_solve.ms_per_op"] = ms({"sparse_solve"});
  m["linalg.sparse_solve.calls_per_op"] = calls({"sparse_solve"});
  m["thermal.assemble.ms_per_op"] = ms({"assemble", "assemble_from_spec"});
  m["thermal.assemble.calls_per_op"] = calls({"assemble", "assemble_from_spec"});
  m["tec.schur_reduction.ms_per_op"] = ms({"schur_reduction"});
  m["tec.pencil_bisection.ms_per_op"] = ms({"pencil_bisection"});
  m["tec.runaway_limit.calls_per_op"] = calls({"runaway_limit"});
  m["engine.engine_probe.calls_per_op"] = calls({"engine_probe"});
  m["engine.engine_restamp_incremental.ms_per_op"] = ms({"engine_restamp_incremental"});
  m["engine.audit.violations_per_op"] = double(w.counter("engine.audit.violations")) / ops;
  m["core.greedy_deploy.ms_per_op"] = ms({"greedy_deploy"});
  m["core.optimize_current.ms_per_op"] = ms({"optimize_current"});
  m["core.full_cover.ms_per_op"] = ms({"full_cover"});
  m["core.greedy.accept_ratio"] = ratio(double(w.counter("greedy.accepted_sites")),
                                        double(w.counter("greedy.candidate_evaluations")));
  m["sim.build.ms_per_op"] = ms({"sim.build"});
  m["sim.step.ms_per_op"] = ms({"sim.step"});
  m["sim.rasterize.ms_per_op"] = ms({"sim.rasterize"});
  m["sim.control.ms_per_op"] = ms({"sim.control"});
  m["io.frame_json.ms_per_op"] = ms({"io.frame_json"});
  // Everything inside an op is under a named span except the op span's own
  // self time (benchmark glue between calls).
  const auto root = w.stat(workload + ".op");
  m["obs.attributed_share"] =
      root.total_ns > 0 ? 1.0 - double(root.self_ns) / double(root.total_ns) : 0.0;
  return m;
}

JsonValue number(double v) { return JsonValue::make_number(std::isfinite(v) ? v : 0.0); }

JsonValue metric_block(const MetricDef* defs, std::size_t count, const MetricMap& values) {
  JsonValue metrics = JsonValue::make_object();
  for (std::size_t i = 0; i < count; ++i) {
    JsonValue entry = JsonValue::make_object();
    const auto it = values.find(defs[i].name);
    entry.set("value", number(it == values.end() ? 0.0 : it->second));
    entry.set("unit", JsonValue::make_string(defs[i].unit));
    metrics.set(defs[i].name, entry);
  }
  return metrics;
}

double ops_per_s(const PhaseResult& r) {
  return r.wall_s > 0.0 ? double(r.latencies_ms.size()) / r.wall_s : 0.0;
}

int run(const std::string& workload_name, std::uint64_t seed, double seconds, bool trace) {
  tfc::par::ThreadPool::set_global_threads(1);
  const double host_start_ms = host_reference_ms();
  auto workload = make_workload(workload_name, seed);

  std::vector<double> setup_s;
  std::string setup_error;
  for (int rep = 0; rep < kSetupReps && setup_error.empty(); ++rep) {
    const auto t0 = Clock::now();
    setup_error = workload->setup();
    setup_s.push_back(ms_since(t0) / 1e3);
  }
  if (!setup_error.empty()) {
    std::fprintf(stderr, "perfbench: %s setup check failed: %s\n", workload_name.c_str(),
                 setup_error.c_str());
  }

  JsonValue notes = JsonValue::make_object();
  notes.set("workload", JsonValue::make_string(workload_name));
  notes.set("seed", number(double(seed)));
  notes.set("seconds", number(seconds));
  notes.set("trace", JsonValue::make_bool(trace));
  JsonValue reps = JsonValue::make_array();
  for (double s : setup_s) reps.push_back(number(s));
  notes.set("setup_reps_s", reps);

  MetricMap values;
  std::size_t attempted = 0, failed = 0;
  const MetricDef* defs = kEndToEnd;
  std::size_t def_count = std::size(kEndToEnd);
  if (!trace) {
    const PhaseResult res = workload->run(Budget{seconds, 0});
    attempted = res.attempted;
    failed = res.failed;
    const double tail_pct = tail_percentile(*workload, seconds);
    values["setup_s"] = percentile(setup_s, 50.0);
    values["op_p50_ms"] = res.latencies_ms.empty() ? 0.0 : percentile(res.latencies_ms, 50.0);
    values["op_tail_ms"] =
        res.latencies_ms.empty() ? 0.0 : percentile(res.latencies_ms, tail_pct);
    values["ops_per_s"] = ops_per_s(res);
    values["peak_rss_mb"] = peak_rss_mb();
    notes.set("ops", number(double(res.latencies_ms.size())));
    notes.set("op_tail_pct", number(tail_pct));
  } else {
    // The untraced passes before and after the traced one bracket it, so
    // warm-up and drift cancel out of the tracing overhead.
    const std::size_t n = traced_ops(*workload, seconds);
    const PhaseResult before = workload->run(Budget{0.0, n});
    tfc::obs::MetricsRegistry::global().reset();
    SpanLog::global().set_enabled(true);
    auto& profiler = tfc::obs::prof::Profiler::global();
    profiler.enable();
    const PhaseResult traced = workload->run(Budget{0.0, n});
    TraceWindow window;
    window.profile = profiler.snapshot(/*reset=*/true);
    profiler.disable();
    SpanLog::global().set_enabled(false);
    window.registry = tfc::obs::MetricsRegistry::global().snapshot_and_reset();
    window.by_name = tfc::obs::prof::aggregate_by_name(window.profile);
    window.ops = traced.attempted;
    values = generic_layer_metrics(workload_name, window);
    workload->layer_metrics(window, values);

    const PhaseResult after = workload->run(Budget{0.0, n});
    const double plain_rate = 0.5 * (ops_per_s(before) + ops_per_s(after));
    values["obs.trace_overhead_pct"] =
        plain_rate > 0.0 ? 100.0 * (plain_rate - ops_per_s(traced)) / plain_rate : 0.0;
    attempted = before.attempted + traced.attempted + after.attempted;
    failed = before.failed + traced.failed + after.failed;
    defs = kPerLayer;
    def_count = std::size(kPerLayer);
    notes.set("ops", number(double(n)));

    // Extra diagnostics a workload reported beyond the per-layer list.
    JsonValue extra = JsonValue::make_object();
    for (const auto& [key, v] : values) {
      bool listed = false;
      for (const MetricDef& d : kPerLayer) listed = listed || key == d.name;
      if (!listed) extra.set(key, number(v));
    }
    notes.set("extra", extra);
    if (values["obs.attributed_share"] < 0.9) {
      const std::string remainder =
          workload_name == "svc_mix"
              ? "server request time outside the svc.request span (reply encoding, "
                "flight record, socket write)"
              : "self time of " + workload_name + ".op (benchmark code between calls)";
      notes.set("unattributed", JsonValue::make_string(remainder));
      std::fprintf(stderr, "perfbench: attributed share %.3f; unattributed: %s\n",
                   values["obs.attributed_share"], remainder.c_str());
    }

    std::filesystem::create_directories(".bench_out");
    const std::string stem = ".bench_out/" + workload_name + "-seed" + std::to_string(seed);
    std::ofstream(stem + ".folded") << tfc::obs::prof::to_collapsed(window.profile);
    if (!SpanLog::global().write(stem + ".spans.jsonl")) {
      std::fprintf(stderr, "perfbench: cannot write %s.spans.jsonl\n", stem.c_str());
    }
    notes.set("profile", JsonValue::make_string(stem + ".folded"));
    notes.set("spans", JsonValue::make_string(stem + ".spans.jsonl"));
  }

  JsonValue host = JsonValue::make_object();
  host.set("start", number(host_start_ms));
  host.set("end", number(host_reference_ms()));
  notes.set("host_ref_ms", host);
  JsonValue notes_line = JsonValue::make_object();
  notes_line.set("notes", notes);
  std::printf("%s\n", notes_line.dump().c_str());

  JsonValue result = JsonValue::make_object();
  result.set("correct", JsonValue::make_bool(setup_error.empty() && failed == 0 && attempted > 0));
  result.set("attempted", number(double(attempted)));
  result.set("failed", number(double(failed)));
  result.set("metrics", metric_block(defs, def_count, values));
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  long long seed = -1;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoll(value, &end, 10);
      if (*end != '\0' || seed < 0) return usage("--seed must be a nonnegative integer");
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, &end);
      if (*end != '\0' || !(seconds > 0.0) || seconds > 3600.0) {
        return usage("--seconds must be in (0, 3600]");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return usage("--trace must be 0 or 1");
      }
      trace = value[0] - '0';
    } else {
      return usage(("unknown option " + flag).c_str());
    }
  }
  if (make_workload(workload, 0) == nullptr) return usage("unknown or missing --workload");
  if (seed < 0 || seconds <= 0.0 || trace < 0) return usage("missing option");
  try {
    return run(workload, std::uint64_t(seed), seconds, trace == 1);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s run aborted: %s\n", workload.c_str(), e.what());
    return 1;
  }
}
