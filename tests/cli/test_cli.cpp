#include "cli/cli.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include "core/chip.h"
#include "io/json.h"
#include "linalg/eigen.h"
#include "obs/obs.h"
#include "par/thread_pool.h"
#include "svc/client.h"
#include "svc/server.h"
#include "tec/runaway.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

namespace tfc::cli {
namespace {

struct CliRun {
  int code = 0;
  std::string out;
  std::string err;
};

CliRun run(std::vector<std::string> args) {
  std::ostringstream out, err;
  CliRun r;
  r.code = run_cli(args, out, err);
  r.out = out.str();
  r.err = err.str();
  return r;
}

/// Built-in chip names resolve through one core function: the CLI and the
/// service reject the same names with the same message, and two spellings
/// of one chip share a single service session.
TEST(Cli, ChipNamesResolveAlikeInCliAndService) {
  svc::ServerOptions o;
  o.socket_path = (std::filesystem::temp_directory_path() /
                   ("tfc_cli_chips_" + std::to_string(::getpid()) + ".sock"))
                      .string();
  o.workers = 1;
  o.cache_capacity = 4;
  svc::Server server(o);
  std::thread thread([&] { server.run(); });
  auto client = svc::Client::connect_unix(o.socket_path);
  const auto solve = [&](const std::string& chip) {
    io::JsonValue params = io::JsonValue::make_object();
    params.set("chip", io::JsonValue::make_string(chip));
    return client.call("solve", params);
  };

  for (const char* name : {"hc0", "hc100", "hcx"}) {
    const auto cli = run({"design", "--chip", name, "--no-full-cover"});
    EXPECT_EQ(cli.code, 2) << name;
    const io::JsonValue reply = solve(name);
    ASSERT_FALSE(reply.at("ok").as_bool()) << name;
    EXPECT_EQ(reply.at("error").at("code").as_string(), "bad_request");
    const std::string message = reply.at("error").at("message").as_string();
    EXPECT_NE(message.find(std::string("unknown chip '") + name + "'"),
              std::string::npos);
    EXPECT_EQ(cli.err, "error: " + message + "\n") << name;
  }

  EXPECT_TRUE(solve("hc7").at("ok").as_bool());
  EXPECT_TRUE(solve("hc007").at("ok").as_bool());
  const io::JsonValue cache = client.call("stats").at("result").at("cache");
  EXPECT_EQ(cache.at("size").as_number(), 1.0);
  EXPECT_EQ(cache.at("misses").as_number(), 1.0);
  EXPECT_EQ(cache.at("hits").as_number(), 1.0);

  server.request_stop();
  thread.join();
}

/// An in-process service on a temp unix socket, stopped on destruction.
class LocalServer {
 public:
  explicit LocalServer(const std::string& tag) {
    const std::string name = "tfc_cli_" + tag + std::to_string(::getpid()) + ".sock";
    options_.socket_path = (std::filesystem::temp_directory_path() / name).string();
    options_.workers = 1;
    options_.cache_capacity = 4;
    server_ = std::make_unique<svc::Server>(options_);
    thread_ = std::thread([this] { server_->run(); });
  }
  ~LocalServer() {
    server_->request_stop();
    thread_.join();
  }
  svc::Client client() const { return svc::Client::connect_unix(options_.socket_path); }

 private:
  svc::ServerOptions options_;
  std::unique_ptr<svc::Server> server_;
  std::thread thread_;
};

/// Params object from (key, JSON text) pairs.
io::JsonValue params_of(std::initializer_list<std::pair<const char*, const char*>> kv) {
  io::JsonValue params = io::JsonValue::make_object();
  for (const auto& [key, json] : kv) params.set(key, io::parse_json(json));
  return params;
}

/// The `sweep` method and `tfcool sweep` run one core::sweep: the service's
/// arrays hold the numbers the CLI prints.
TEST(Cli, SweepMatchesServiceSweep) {
  LocalServer server("sweep");
  auto client = server.client();
  const std::vector<std::pair<std::vector<std::string>, io::JsonValue>> cases = {
      {{}, params_of({{"chip", "\"alpha\""}})},
      {{"--points", "7"}, params_of({{"chip", "\"alpha\""}, {"points", "7"}})},
      {{"--max-fraction", "0.5"},
       params_of({{"chip", "\"alpha\""}, {"max_fraction", "0.5"}})},
  };
  for (const auto& [flags, params] : cases) {
    std::vector<std::string> args = {"sweep", "--chip", "alpha"};
    args.insert(args.end(), flags.begin(), flags.end());
    const auto cli = run(args);
    ASSERT_EQ(cli.code, 0) << cli.err;
    const io::JsonValue reply = client.call("sweep", params);
    ASSERT_TRUE(reply.at("ok").as_bool()) << reply.dump();
    const io::JsonValue& result = reply.at("result");
    std::ostringstream csv;
    csv << "current_a,peak_degc,ptec_w\n";
    const auto& currents = result.at("current_a").as_array();
    for (std::size_t k = 0; k < currents.size(); ++k) {
      csv << currents[k].as_number() << ","
          << result.at("peak_celsius").as_array()[k].as_number() << ","
          << result.at("tec_power_w").as_array()[k].as_number() << "\n";
    }
    EXPECT_EQ(cli.out, csv.str()) << params.dump();
  }
}

/// The `simulate` method and `tfcool simulate` share one request type and
/// one schedule rule: the same frames and summary for the same request.
TEST(Cli, SimulateMatchesServiceSimulate) {
  LocalServer server("simulate");
  auto client = server.client();
  const std::vector<std::pair<std::vector<std::string>, io::JsonValue>> cases = {
      {{}, params_of({})},
      {{"--steps", "60"}, params_of({{"steps", "60"}})},
      {{"--steps", "60", "--no-dtm"}, params_of({{"steps", "60"}, {"dtm", "false"}})},
      {{"--steps", "60", "--tec-on", "5", "--tec-off", "30"},
       params_of({{"steps", "60"}, {"tec_on_step", "5"}, {"tec_off_step", "30"}})},
      {{"--steps", "60", "--no-dtm", "--tec-on", "5", "--tec-off", "30"},
       params_of({{"steps", "60"}, {"dtm", "false"}, {"tec_on_step", "5"},
                  {"tec_off_step", "30"}})},
      {{"--steps", "60", "--current", "3"},
       params_of({{"steps", "60"}, {"current", "3"}})},
      {{"--steps", "30", "--tiles", "--frame-every", "7"},
       params_of({{"steps", "30"}, {"tiles", "true"}, {"frame_every", "7"}})},
  };
  for (const auto& [flags, params] : cases) {
    std::vector<std::string> args = {"simulate", "--chip", "hc1"};
    args.insert(args.end(), flags.begin(), flags.end());
    const auto cli = run(args);
    ASSERT_LE(cli.code, 1) << cli.err;
    std::vector<std::string> lines;
    std::istringstream text(cli.out);
    for (std::string line; std::getline(text, line);) lines.push_back(line);
    ASSERT_FALSE(lines.empty());

    io::JsonValue request = io::JsonValue::make_object();
    request.set("method", io::JsonValue::make_string("simulate"));
    io::JsonValue with_chip = params;
    with_chip.set("chip", io::JsonValue::make_string("hc1"));
    request.set("params", with_chip);
    client.send_raw(request.dump());
    std::vector<io::JsonValue> frames;
    io::JsonValue final;
    while (true) {
      io::JsonValue line = io::parse_json(client.read_line());
      if (line.has("ok")) {
        final = std::move(line);
        break;
      }
      frames.push_back(std::move(line));
    }
    ASSERT_TRUE(final.at("ok").as_bool()) << final.dump();
    ASSERT_EQ(frames.size() + 1, lines.size()) << params.dump();
    for (std::size_t k = 0; k < frames.size(); ++k) {
      EXPECT_EQ(io::parse_json(lines[k]).dump(), frames[k].at("sim").dump())
          << params.dump() << " frame " << k;
    }
    EXPECT_EQ(io::parse_json(lines.back()).at("summary").dump(),
              final.at("result").at("summary").dump())
        << params.dump();
  }
}

/// A range error is refused by the shared validate(): the CLI exits 2 with
/// the message the service returns as bad_request, and a refused limit
/// never reaches the session cache.
TEST(Cli, RangeErrorsReadTheSameInCliAndService) {
  LocalServer server("ranges");
  auto client = server.client();
  // Hit/miss/eviction counts are process-wide metrics; compare deltas.
  const io::JsonValue before = client.call("stats").at("result").at("cache");
  struct Case {
    std::vector<std::string> args;
    const char* method;
    io::JsonValue params;
  };
  const std::vector<Case> cases = {
      {{"sweep", "--points", "0"}, "sweep", params_of({{"points", "0"}})},
      {{"sweep", "--max-fraction", "1.5"}, "sweep", params_of({{"max_fraction", "1.5"}})},
      {{"simulate", "--steps", "0"}, "simulate", params_of({{"steps", "0"}})},
      {{"simulate", "--dt", "20"}, "simulate", params_of({{"dt", "20"}})},
      {{"simulate", "--no-dtm", "--tec-off", "5"}, "simulate",
       params_of({{"dtm", "false"}, {"tec_off_step", "5"}})},
      {{"sweep", "--limit", "600"}, "sweep", params_of({{"limit", "600"}})},
      {{"runaway", "--limit", "600"}, "runaway", params_of({{"limit", "600"}})},
  };
  for (const Case& c : cases) {
    const auto cli = run(c.args);
    EXPECT_EQ(cli.code, 2) << c.params.dump();
    io::JsonValue reply;
    if (std::string(c.method) == "simulate") {
      io::JsonValue request = io::JsonValue::make_object();
      request.set("method", io::JsonValue::make_string("simulate"));
      request.set("params", c.params);
      client.send_raw(request.dump());
      reply = io::parse_json(client.read_line());  // no frames before a refusal
    } else {
      reply = client.call(c.method, c.params);
    }
    ASSERT_FALSE(reply.at("ok").as_bool()) << c.params.dump();
    EXPECT_EQ(reply.at("error").at("code").as_string(), "bad_request");
    EXPECT_EQ(cli.err, "error: " + reply.at("error").at("message").as_string() + "\n");
  }
  const io::JsonValue cache = client.call("stats").at("result").at("cache");
  EXPECT_EQ(cache.at("size").as_number(), 0.0);
  for (const char* count : {"misses", "evictions"}) {
    EXPECT_EQ(cache.at(count).as_number(), before.at(count).as_number()) << count;
  }
}

/// Numbers are read strictly: a malformed flag or a wrong-typed or
/// out-of-range param is refused at once instead of wrapping, casting out of
/// range, or falling back to a default.
TEST(Cli, MalformedNumbersAreRefusedAtOnce) {
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"sweep", "--points", "-3"},
        std::vector<std::string>{"simulate", "--steps", "-1"},
        std::vector<std::string>{"design", "--limit", "nan", "--no-full-cover"},
        std::vector<std::string>{"simulate", "--steps", "20", "--no-dtm", "--tec-on",
                                 "1e30"}}) {
    const auto r = run(args);
    EXPECT_EQ(r.code, 2) << args[1] << " " << args[2];
    EXPECT_EQ(r.out, "");
    EXPECT_EQ(r.err.rfind("error: ", 0), 0u) << r.err;
  }

  LocalServer server("strict");
  auto client = server.client();
  using MethodParams = std::pair<const char*, io::JsonValue>;
  for (const auto& [method, params] :
       {MethodParams{"design", params_of({{"chip", "\"hc6\""}, {"limit", "\"90\""}})},
        MethodParams{"sweep", params_of({{"points", "\"5\""}})},
        MethodParams{"simulate", params_of({{"tec_on_step", "1e300"}})}}) {
    io::JsonValue request = io::JsonValue::make_object();
    request.set("method", io::JsonValue::make_string(method));
    request.set("params", params);
    client.send_raw(request.dump());
    const io::JsonValue reply = io::parse_json(client.read_line());
    ASSERT_FALSE(reply.at("ok").as_bool()) << params.dump();
    EXPECT_EQ(reply.at("error").at("code").as_string(), "bad_request") << params.dump();
  }
}

TEST(Cli, HelpPrintsUsage) {
  auto r = run({"--help"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("usage: tfcool"), std::string::npos);
}

TEST(Cli, MissingCommandIsUsageError) {
  auto r = run({});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("missing command"), std::string::npos);
}

TEST(Cli, UnknownCommandIsUsageError) {
  auto r = run({"frobnicate"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(Cli, OptionMissingValueIsUsageError) {
  auto r = run({"design", "--limit"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("requires a value"), std::string::npos);
}

TEST(Cli, UnknownChipReported) {
  auto r = run({"design", "--chip", "pentium"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown chip"), std::string::npos);
}

TEST(Cli, DesignAlphaSucceeds) {
  auto r = run({"design", "--chip", "alpha"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("alpha"), std::string::npos);
  EXPECT_NE(r.out.find("ok"), std::string::npos);
}

TEST(Cli, DesignMapFlagPrintsGrid) {
  auto r = run({"design", "--chip", "alpha", "--map", "--no-full-cover"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find('#'), std::string::npos);
}

TEST(Cli, DesignJsonWritesFile) {
  const auto path = std::filesystem::temp_directory_path() / "tfcool_cli_test.json";
  std::filesystem::remove(path);
  auto r = run({"design", "--chip", "hc1", "--no-full-cover", "--json", path.string()});
  EXPECT_EQ(r.code, 0);
  std::ifstream jf(path);
  ASSERT_TRUE(jf.good());
  std::stringstream buf;
  buf << jf.rdbuf();
  EXPECT_NE(buf.str().find("\"chip\": \"hc1\""), std::string::npos);
  std::filesystem::remove(path);
}

TEST(Cli, RunawayReportsLambda) {
  auto r = run({"runaway", "--chip", "alpha"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("lambda_m"), std::string::npos);
}

/// Parse the full-precision λ_m out of `runaway` stdout ("lambda_m = X A").
double lambda_m_of(const std::string& out) {
  const auto pos = out.find("lambda_m = ");
  EXPECT_NE(pos, std::string::npos) << out;
  return std::stod(out.substr(pos + 11));
}

TEST(Cli, RunawayHc1At87MatchesDenseOracle) {
  // The Lanczos certificate holds on hc1's 87 °C deployment, and λ_m agrees
  // with dense bisection on the exact Schur-reduced pencil to 1e-8.
  auto r = run({"runaway", "--chip", "hc1", "--limit", "87"});
  ASSERT_EQ(r.code, 0) << r.err;
  const core::Chip chip = core::builtin_chip("hc1");
  const core::DesignResult design = core::design_with_fallback(chip, 87.0, false);
  const auto system = tec::ElectroThermalSystem::assemble(
      chip.spec, design.deployment, chip.tile_powers,
      tec::TecDeviceParams::chowdhury_superlattice());
  const tec::SchurReduction red = tec::schur_reduction(system);
  linalg::PencilBisectionOptions opts;
  opts.rel_tol = 1e-12;
  const auto oracle = linalg::pencil_smallest_positive_eigenvalue(
      red.s0, linalg::DenseMatrix::diagonal(red.d_diag), opts);
  ASSERT_TRUE(oracle.has_value());
  EXPECT_NEAR(lambda_m_of(r.out), *oracle, 1e-8 * *oracle);
}

TEST(Cli, ValidateWithinPaperBound) {
  auto r = run({"validate", "--chip", "alpha"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("max |diff|"), std::string::npos);
}

TEST(Cli, OversizedSpecGridIsAnErrorNotACrash) {
  // examples/paper_single_die.json at 2^33 x 2^33 tiles: the tile count
  // wraps to 0 in 64 bits.
  std::ifstream in(std::string(TFC_EXAMPLES_DIR) + "/paper_single_die.json");
  std::stringstream text;
  text << in.rdbuf();
  std::string spec = text.str();
  for (const char* key : {"\"tile_rows\": 12", "\"tile_cols\": 12"}) {
    const std::size_t at = spec.find(key);
    ASSERT_NE(at, std::string::npos) << key;
    spec.replace(at, std::strlen(key), std::string(key, std::strlen(key) - 2) + "8589934592");
  }
  const auto path = std::filesystem::temp_directory_path() /
                    ("tfcool_cli_huge_" + std::to_string(::getpid()) + ".json");
  std::ofstream(path) << spec;
  const auto validate = run({"spec", "validate", path.string()});
  EXPECT_EQ(validate.code, 1);
  EXPECT_NE(validate.err.find("virtual tile grid exceeds"), std::string::npos) << validate.err;
  const auto design = run({"design", "--spec", path.string()});
  EXPECT_EQ(design.code, 2);
  EXPECT_NE(design.err.find("virtual tile grid exceeds"), std::string::npos) << design.err;
  std::filesystem::remove(path);
}

/// A wrong-typed optional field is a schema error, not a default: `spec
/// validate` refuses it and `design` never runs on the defaulted value.
TEST(Cli, WrongTypedSpecFieldsAreRefused) {
  std::ifstream in(std::string(TFC_EXAMPLES_DIR) + "/paper_single_die.json");
  std::stringstream text;
  text << in.rdbuf();
  const auto path = std::filesystem::temp_directory_path() /
                    ("tfcool_cli_typed_" + std::to_string(::getpid()) + ".json");
  for (const auto& [field, good, bad] :
       {std::array<std::string, 3>{"power_w", "\"power_w\": 25", "\"power_w\": \"25\""},
        std::array<std::string, 3>{"tec_capable", "\"tec_capable\": true",
                                   "\"tec_capable\": \"yes\""},
        std::array<std::string, 3>{"name", "\"name\": \"chip0\"", "\"name\": 5"},
        std::array<std::string, 3>{"kind", "\"kind\": \"die\"", "\"kind\": 5"}}) {
    std::string spec = text.str();
    const std::size_t at = spec.find(good);
    ASSERT_NE(at, std::string::npos) << good;
    spec.replace(at, good.size(), bad);
    std::ofstream(path) << spec;
    const auto validate = run({"spec", "validate", path.string()});
    EXPECT_EQ(validate.code, 1) << field;
    EXPECT_NE(validate.err.find("'" + field + "'"), std::string::npos) << validate.err;
    EXPECT_EQ(run({"design", "--spec", path.string()}).code, 2) << field;
  }
  std::filesystem::remove(path);
}

TEST(Cli, ThreadCountAboveTheCeilingIsRefused) {
  const auto r = run({"design", "--threads", std::to_string(par::kMaxThreads + 1),
                      "--no-full-cover"});
  EXPECT_EQ(r.code, 2);
  EXPECT_EQ(r.out, "");
  EXPECT_NE(r.err.find("at most 256"), std::string::npos) << r.err;
}

TEST(Cli, SweepEmitsCsv) {
  auto r = run({"sweep", "--chip", "alpha", "--points", "5"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("current_a,peak_degc,ptec_w"), std::string::npos);
  // Header + 6 data rows.
  EXPECT_EQ(std::count(r.out.begin(), r.out.end(), '\n'), 7);
}

TEST(Cli, SensitivityEmitsCsv) {
  auto r = run({"sensitivity", "--chip", "alpha"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("parameter,d_peak_per_rel"), std::string::npos);
  EXPECT_NE(r.out.find("seebeck,"), std::string::npos);
  EXPECT_NE(r.out.find("g_cold_contact,"), std::string::npos);
}

TEST(Cli, FlpRequiresPtrace) {
  auto r = run({"design", "--flp", "/nonexistent.flp"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--ptrace"), std::string::npos);
}

TEST(Cli, MissingFlpFileReported) {
  auto r = run({"design", "--flp", "/nonexistent.flp", "--ptrace", "/nonexistent.ptrace"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("cannot open"), std::string::npos);
}

TEST(Cli, VersionPrintsBuildInfo) {
  auto r = run({"version"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("tfcool"), std::string::npos);
  EXPECT_NE(r.out.find("compiler:"), std::string::npos);
  EXPECT_NE(r.out.find("obs compile-time level:"), std::string::npos);
}

TEST(Cli, BadLogLevelIsUsageError) {
  auto r = run({"design", "--chip", "alpha", "--log-level", "shouty"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown log level"), std::string::npos);
}

TEST(Cli, TraceAndMetricsOutWriteJson) {
  namespace fs = std::filesystem;
  const auto trace = fs::temp_directory_path() / "tfcool_cli_test_trace.json";
  const auto metrics = fs::temp_directory_path() / "tfcool_cli_test_metrics.json";
  fs::remove(trace);
  fs::remove(metrics);
  auto r = run({"design", "--chip", "alpha", "--no-full-cover", "--trace-out",
                trace.string(), "--metrics-out", metrics.string()});
  EXPECT_EQ(r.code, 0) << r.err;

  std::ifstream tf(trace);
  ASSERT_TRUE(tf.good());
  std::stringstream tbuf;
  tbuf << tf.rdbuf();
  EXPECT_NE(tbuf.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(tbuf.str().find("\"name\":\"design\""), std::string::npos);
  EXPECT_NE(tbuf.str().find("\"name\":\"greedy_deploy\""), std::string::npos);
  EXPECT_NE(tbuf.str().find("\"ph\":\"X\""), std::string::npos);

  std::ifstream mf(metrics);
  ASSERT_TRUE(mf.good());
  std::stringstream mbuf;
  mbuf << mf.rdbuf();
  EXPECT_NE(mbuf.str().find("\"counters\""), std::string::npos);
  EXPECT_NE(mbuf.str().find("\"cg.iterations\""), std::string::npos);
  EXPECT_NE(mbuf.str().find("\"greedy.candidate_evaluations\""), std::string::npos);

  fs::remove(trace);
  fs::remove(metrics);
}

TEST(Cli, TracingIsScopedToOneInvocation) {
  namespace fs = std::filesystem;
  const auto trace = fs::temp_directory_path() / "tfcool_cli_test_trace2.json";
  fs::remove(trace);
  auto r1 = run({"runaway", "--chip", "alpha", "--trace-out", trace.string()});
  EXPECT_EQ(r1.code, 0);
  // A following invocation without --trace-out must not collect spans.
  auto r2 = run({"runaway", "--chip", "alpha"});
  EXPECT_EQ(r2.code, 0);
  EXPECT_FALSE(tfc::obs::TraceCollector::global().enabled());
  EXPECT_EQ(tfc::obs::TraceCollector::global().event_count(), 0u);
  fs::remove(trace);
}

TEST(Cli, UnknownOptionNamesTokenAndCommand) {
  auto r = run({"design", "--frobnicate", "1"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown option '--frobnicate' for command 'design'"),
            std::string::npos);
  EXPECT_NE(r.err.find("usage: tfcool design"), std::string::npos);

  // Same diagnosis when the unknown option is the last token (nothing behind
  // it that could have been its value).
  auto last = run({"design", "--frobnicate"});
  EXPECT_EQ(last.code, 2);
  EXPECT_NE(last.err.find("unknown option '--frobnicate' for command 'design'"),
            std::string::npos);
  EXPECT_NE(last.err.find("usage: tfcool design"), std::string::npos);

  // A known value-taking option with no value still reports the missing value.
  auto missing = run({"design", "--chip"});
  EXPECT_EQ(missing.code, 2);
  EXPECT_NE(missing.err.find("option '--chip' requires a value"), std::string::npos);
}

TEST(Cli, OptionsAreValidatedPerCommand) {
  // --points belongs to sweep, not runaway.
  auto r = run({"runaway", "--points", "5"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown option '--points' for command 'runaway'"),
            std::string::npos);
}

TEST(Cli, PerCommandHelpShowsOwnOptions) {
  auto r = run({"sweep", "--help"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("usage: tfcool sweep"), std::string::npos);
  EXPECT_NE(r.out.find("--points"), std::string::npos);
  EXPECT_NE(r.out.find("--chip"), std::string::npos);  // chip-selection block

  auto serve_help = run({"serve", "--help"});
  EXPECT_EQ(serve_help.code, 0);
  EXPECT_NE(serve_help.out.find("--queue"), std::string::npos);
  EXPECT_NE(serve_help.out.find("SIGINT/SIGTERM"), std::string::npos);
}

TEST(Cli, ServeRequiresAListener) {
  auto r = run({"serve"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--socket"), std::string::npos);
}

TEST(Cli, RequestValidatesItsOptions) {
  auto no_method = run({"request", "--socket", "/tmp/nowhere.sock"});
  EXPECT_EQ(no_method.code, 2);
  EXPECT_NE(no_method.err.find("--method"), std::string::npos);

  auto no_endpoint = run({"request", "--method", "ping"});
  EXPECT_EQ(no_endpoint.code, 2);
  EXPECT_NE(no_endpoint.err.find("exactly one of"), std::string::npos);

  auto bad_params = run({"request", "--socket", "/tmp/nowhere.sock", "--method",
                         "ping", "--params", "not json"});
  EXPECT_EQ(bad_params.code, 2);
  EXPECT_NE(bad_params.err.find("bad --params"), std::string::npos);
}

/// Full service loop through the CLI surface only: `tfcool serve` in a
/// thread, `tfcool request` for the traffic, metrics checked from the
/// --metrics-out export — the same artifacts a shell user would touch.
TEST(Cli, ServeRequestEndToEnd) {
  namespace fs = std::filesystem;
  const auto sock = fs::temp_directory_path() /
                    ("tfcool_cli_e2e_" + std::to_string(::getpid()) + ".sock");
  const auto metrics = fs::temp_directory_path() / "tfcool_cli_e2e_metrics.json";
  fs::remove(sock);
  fs::remove(metrics);
  const auto hits_before =
      tfc::obs::MetricsRegistry::global().counter("svc.cache.hits").value();

  CliRun serve_result;
  std::thread server([&] {
    serve_result = run({"serve", "--socket", sock.string(), "--workers", "1",
                        "--queue", "1", "--metrics-out", metrics.string()});
  });

  auto request = [&](std::vector<std::string> extra) {
    std::vector<std::string> args = {"request", "--socket", sock.string()};
    args.insert(args.end(), extra.begin(), extra.end());
    return run(args);
  };

  // Wait until the service answers a ping (socket creation is async).
  CliRun ping;
  for (int attempt = 0; attempt < 100; ++attempt) {
    ping = request({"--method", "ping"});
    if (ping.code == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_EQ(ping.code, 0) << ping.err;
  EXPECT_NE(ping.out.find("\"pong\""), std::string::npos);

  // Second identical solve must be served from the session cache.
  auto solve1 = request({"--method", "solve", "--params", R"({"chip": "alpha"})"});
  ASSERT_EQ(solve1.code, 0) << solve1.err;
  EXPECT_NE(solve1.out.find("\"peak_celsius\""), std::string::npos);
  auto solve2 = request({"--method", "solve", "--params", R"({"chip": "alpha"})"});
  ASSERT_EQ(solve2.code, 0) << solve2.err;

  // A request whose deadline expires while the lone worker is busy gets a
  // structured timeout error (exit 1, not a hang).
  std::thread blocker([&] {
    auto slow = request({"--method", "ping", "--params", R"({"delay_ms": 600})"});
    EXPECT_EQ(slow.code, 0) << slow.err;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  auto late = request({"--method", "ping", "--deadline-ms", "50"});
  blocker.join();
  EXPECT_EQ(late.code, 1);
  EXPECT_NE(late.out.find("deadline_exceeded"), std::string::npos);

  // Worker busy + queue full → the extra request is shed with `overloaded`.
  std::thread busy1([&] {
    (void)request({"--method", "ping", "--params", R"({"delay_ms": 600})"});
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  std::thread busy2([&] {
    (void)request({"--method", "ping", "--params", R"({"delay_ms": 600})"});
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  auto shed = request({"--method", "ping"});
  busy1.join();
  busy2.join();
  EXPECT_EQ(shed.code, 1);
  EXPECT_NE(shed.out.find("overloaded"), std::string::npos);
  EXPECT_NE(shed.out.find("429"), std::string::npos);

  // Graceful stop through the protocol; the serve command must exit 0.
  auto bye = request({"--method", "shutdown"});
  EXPECT_EQ(bye.code, 0);
  server.join();
  EXPECT_EQ(serve_result.code, 0) << serve_result.err;
  EXPECT_NE(serve_result.out.find("server stopped (drained)"), std::string::npos);

  // The exported metrics document proves the cache hit (acceptance check).
  std::ifstream mf(metrics);
  ASSERT_TRUE(mf.good());
  std::stringstream mbuf;
  mbuf << mf.rdbuf();
  const auto doc = tfc::io::parse_json(mbuf.str());
  EXPECT_GE(doc.at("counters").at("svc.cache.hits").as_number(),
            double(hits_before + 1));
  EXPECT_GE(doc.at("counters").at("svc.rejected.overloaded").as_number(), 1.0);
  EXPECT_GE(doc.at("counters").at("svc.rejected.deadline").as_number(), 1.0);

  fs::remove(sock);
  fs::remove(metrics);
}

/// `tfcool health` against a live service: green on healthy traffic (exit
/// 0), red with the offender named after an injected fault (exit 1), and
/// the `recent` table growing the audit columns.
TEST(Cli, HealthCommandEndToEnd) {
  namespace fs = std::filesystem;
  const auto sock = fs::temp_directory_path() /
                    ("tfcool_cli_health_" + std::to_string(::getpid()) + ".sock");
  fs::remove(sock);

  CliRun serve_result;
  std::thread server([&] {
    serve_result = run({"serve", "--socket", sock.string(), "--workers", "1",
                        "--audit-every", "1", "--cross-check-every", "1",
                        "--fault-injection"});
  });
  auto request = [&](std::vector<std::string> extra) {
    std::vector<std::string> args = {"request", "--socket", sock.string()};
    args.insert(args.end(), extra.begin(), extra.end());
    return run(args);
  };

  CliRun ping;
  for (int attempt = 0; attempt < 100; ++attempt) {
    ping = request({"--method", "ping"});
    if (ping.code == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_EQ(ping.code, 0) << ping.err;

  auto solve = [&] {
    return request({"--method", "solve", "--params", R"({"chip": "alpha"})"});
  };
  ASSERT_EQ(solve().code, 0);
  ASSERT_EQ(solve().code, 0);

  auto green = run({"health", "--socket", sock.string()});
  EXPECT_EQ(green.code, 0) << green.err;
  EXPECT_NE(green.out.find("health: green"), std::string::npos) << green.out;
  EXPECT_NE(green.out.find("alpha"), std::string::npos);

  auto inject = request({"--method", "inject", "--params",
                         R"({"chip": "alpha", "theta_offset_k": 5.0})"});
  ASSERT_EQ(inject.code, 0) << inject.out;
  ASSERT_EQ(solve().code, 0);

  auto red = run({"health", "--socket", sock.string()});
  EXPECT_EQ(red.code, 1) << red.out;
  EXPECT_NE(red.out.find("health: red"), std::string::npos) << red.out;
  EXPECT_NE(red.out.find("offenders:"), std::string::npos);

  // The fixed-width `recent` table gained the certificate columns.
  auto recent = request({"--method", "recent"});
  EXPECT_EQ(recent.code, 0);
  EXPECT_NE(recent.out.find("audit"), std::string::npos);
  EXPECT_NE(recent.out.find("resid"), std::string::npos);
  EXPECT_NE(recent.out.find("balance"), std::string::npos);
  EXPECT_NE(recent.out.find("fail"), std::string::npos);

  // Usage errors: health needs exactly one endpoint.
  auto no_endpoint = run({"health"});
  EXPECT_EQ(no_endpoint.code, 2);
  EXPECT_NE(no_endpoint.err.find("--socket"), std::string::npos);

  auto bye = request({"--method", "shutdown"});
  EXPECT_EQ(bye.code, 0);
  server.join();
  EXPECT_EQ(serve_result.code, 0) << serve_result.err;
  fs::remove(sock);
}

TEST(Cli, ServeObservabilityFlagsAreValidated) {
  auto bad_slow = run({"serve", "--socket", "/tmp/x.sock", "--slow-ms", "-1"});
  EXPECT_EQ(bad_slow.code, 2);
  EXPECT_NE(bad_slow.err.find("--slow-ms"), std::string::npos);

  auto bad_recent = run({"serve", "--socket", "/tmp/x.sock", "--recent", "0"});
  EXPECT_EQ(bad_recent.code, 2);
  EXPECT_NE(bad_recent.err.find("--recent"), std::string::npos);
}

/// The observability surface through the CLI only: --trace/--trace-id on
/// `request`, the `recent` pretty-printer, and serve's --prom-addr /
/// --trace-file flags.
TEST(Cli, ObservabilityFlagsEndToEnd) {
  namespace fs = std::filesystem;
  const auto sock = fs::temp_directory_path() /
                    ("tfcool_cli_obs_" + std::to_string(::getpid()) + ".sock");
  const auto trace = fs::temp_directory_path() /
                     ("tfcool_cli_obs_" + std::to_string(::getpid()) + ".jsonl");
  fs::remove(sock);
  fs::remove(trace);

  CliRun serve_result;
  std::thread server([&] {
    serve_result = run({"serve", "--socket", sock.string(), "--workers", "1",
                        "--prom-addr", "127.0.0.1:0", "--recent", "4",
                        "--trace-file", trace.string()});
  });
  auto request = [&](std::vector<std::string> extra) {
    std::vector<std::string> args = {"request", "--socket", sock.string()};
    args.insert(args.end(), extra.begin(), extra.end());
    return run(args);
  };
  CliRun ping;
  for (int attempt = 0; attempt < 100; ++attempt) {
    ping = request({"--method", "ping"});
    if (ping.code == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_EQ(ping.code, 0) << ping.err;

  // --trace asks for the span tree inline; --trace-id is echoed back.
  auto traced = request({"--method", "solve", "--params", R"({"chip": "alpha"})",
                         "--trace", "--trace-id", "cli-t1"});
  ASSERT_EQ(traced.code, 0) << traced.err;
  EXPECT_NE(traced.out.find("cli-t1"), std::string::npos);
  EXPECT_NE(traced.out.find("svc.request"), std::string::npos);
  EXPECT_NE(traced.out.find("et_solve"), std::string::npos);

  // `recent` pretty-prints by default and stays raw NDJSON with --raw.
  auto solve2 = request({"--method", "solve", "--params", R"({"chip": "alpha"})"});
  ASSERT_EQ(solve2.code, 0) << solve2.err;
  auto table = request({"--method", "recent"});
  ASSERT_EQ(table.code, 0) << table.err;
  EXPECT_NE(table.out.find("recent requests:"), std::string::npos);
  EXPECT_NE(table.out.find("(capacity 4)"), std::string::npos);
  EXPECT_NE(table.out.find("method"), std::string::npos);
  EXPECT_NE(table.out.find("hit"), std::string::npos);
  EXPECT_EQ(table.out.find("\"requests\""), std::string::npos);
  auto raw = request({"--method", "recent", "--raw"});
  ASSERT_EQ(raw.code, 0) << raw.err;
  EXPECT_NE(raw.out.find("\"requests\""), std::string::npos);

  auto bye = request({"--method", "shutdown"});
  EXPECT_EQ(bye.code, 0);
  server.join();
  ASSERT_EQ(serve_result.code, 0) << serve_result.err;
  // The serve banner announces the bound scrape port.
  EXPECT_NE(serve_result.out.find("metrics on http:"), std::string::npos);

  // --trace-file captured one JSONL span tree per request.
  std::ifstream tf(trace);
  ASSERT_TRUE(tf.good());
  std::string line;
  ASSERT_TRUE(std::getline(tf, line));
  EXPECT_NE(line.find("svc.request"), std::string::npos);

  fs::remove(sock);
  fs::remove(trace);
}

/// Satellite of PR 9: every exported Chrome trace_event must be a complete
/// "X" (duration) event, and because events are appended at span close, the
/// per-thread end times must be monotone non-decreasing.
TEST(Cli, ChromeTraceEventsAreSchemaValidAndEndMonotonePerTid) {
  namespace fs = std::filesystem;
  const auto trace = fs::temp_directory_path() /
                     ("tfcool_cli_schema_" + std::to_string(::getpid()) + ".json");
  fs::remove(trace);
  auto r = run({"design", "--chip", "alpha", "--no-full-cover", "--trace-out",
                trace.string()});
  ASSERT_EQ(r.code, 0) << r.err;

  std::ifstream tf(trace);
  ASSERT_TRUE(tf.good());
  std::stringstream buf;
  buf << tf.rdbuf();
  const auto doc = tfc::io::parse_json(buf.str());
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_GT(events.size(), 10u);

  std::map<long long, double> last_end_by_tid;
  for (const auto& e : events) {
    EXPECT_EQ(e.string_or("ph", ""), "X");
    EXPECT_FALSE(e.string_or("name", "").empty());
    const double ts = e.number_or("ts", -1.0);
    const double dur = e.number_or("dur", -1.0);
    EXPECT_GE(ts, 0.0);
    EXPECT_GE(dur, 0.0);
    ASSERT_NE(e.get("pid"), nullptr);
    ASSERT_NE(e.get("tid"), nullptr);
    const auto tid = (long long)e.number_or("tid", -1.0);
    const double end = ts + dur;
    auto it = last_end_by_tid.find(tid);
    if (it != last_end_by_tid.end()) {
      EXPECT_GE(end, it->second) << "tid " << tid << " event out of order";
      it->second = end;
    } else {
      last_end_by_tid[tid] = end;
    }
  }
  fs::remove(trace);
}

TEST(Cli, ProfileCommandPrintsKernelTable) {
  auto r = run({"profile", "--chip", "alpha"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("profile: alpha design"), std::string::npos);
  EXPECT_NE(r.out.find("lambda_m"), std::string::npos);
  EXPECT_NE(r.out.find("kernel"), std::string::npos);
  EXPECT_NE(r.out.find("self_ms"), std::string::npos);
  EXPECT_NE(r.out.find("sparse_refactor"), std::string::npos);
  EXPECT_NE(r.out.find("greedy_deploy"), std::string::npos);

  auto bad = run({"profile", "--chip", "alpha", "--format", "xml"});
  EXPECT_EQ(bad.code, 2);
  EXPECT_NE(bad.err.find("--format"), std::string::npos);
}

TEST(Cli, ProfileOutWritesCollapsedAndIsScopedToOneInvocation) {
  namespace fs = std::filesystem;
  const auto folded = fs::temp_directory_path() /
                      ("tfcool_cli_prof_" + std::to_string(::getpid()) + ".folded");
  fs::remove(folded);
  auto r = run({"runaway", "--chip", "alpha", "--profile-out", folded.string()});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("wrote " + folded.string()), std::string::npos);

  std::ifstream pf(folded);
  ASSERT_TRUE(pf.good());
  std::stringstream buf;
  buf << pf.rdbuf();
  EXPECT_NE(buf.str().find("runaway_limit"), std::string::npos);
  // Collapsed grammar: `frame(;frame)* <count>` per line.
  std::string line;
  std::istringstream lines(buf.str());
  while (std::getline(lines, line)) {
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    for (char c : line.substr(space + 1)) EXPECT_TRUE(::isdigit(c)) << line;
  }

  // The profiler must not stay enabled for the next invocation.
  EXPECT_FALSE(tfc::obs::prof::Profiler::global().enabled());
  fs::remove(folded);
}

/// PR 9 acceptance: `tfcool profile` and the service `profile` method see
/// the same workload — a session build for the same chip/limit — so their
/// per-kernel frame counts must agree exactly (wall times vary; counts are
/// deterministic).
TEST(Cli, ServeProfileEndToEndMatchesCliProfileCounts) {
  namespace fs = std::filesystem;
  const auto sock = fs::temp_directory_path() /
                    ("tfcool_cli_prof_e2e_" + std::to_string(::getpid()) + ".sock");
  fs::remove(sock);

  // Drain everything earlier tests recorded so the service's cumulative
  // snapshot covers exactly this server's lifetime.
  tfc::obs::prof::Profiler::global().disable();
  (void)tfc::obs::prof::Profiler::global().snapshot(true);

  CliRun serve_result;
  std::thread server([&] {
    serve_result = run({"serve", "--socket", sock.string(), "--workers", "1",
                        "--profile"});
  });
  auto request = [&](std::vector<std::string> extra) {
    std::vector<std::string> args = {"request", "--socket", sock.string()};
    args.insert(args.end(), extra.begin(), extra.end());
    return run(args);
  };
  CliRun ping;
  for (int attempt = 0; attempt < 100; ++attempt) {
    ping = request({"--method", "ping"});
    if (ping.code == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_EQ(ping.code, 0) << ping.err;

  auto design = request({"--method", "design", "--params", R"({"chip": "alpha"})"});
  ASSERT_EQ(design.code, 0) << design.err;

  // The collapsed form is servable text.
  auto collapsed =
      request({"--method", "profile", "--params", R"({"format": "collapsed"})"});
  ASSERT_EQ(collapsed.code, 0) << collapsed.err;
  EXPECT_NE(collapsed.out.find("svc.method.design"), std::string::npos);

  auto prof = request({"--method", "profile", "--params", R"({"format": "json"})"});
  ASSERT_EQ(prof.code, 0) << prof.err;
  const auto reply = tfc::io::parse_json(prof.out);
  const auto& result = reply.at("result");
  EXPECT_TRUE(result.bool_or("enabled", false));
  EXPECT_GE(result.number_or("overhead_ratio", -1.0), 0.0);
  ASSERT_TRUE(result.at("totals").number_or("count", 0.0) > 0.0);
  const auto& svc_kernels = result.at("profile").at("kernels").as_array();

  // The flight recorder now attributes each request to its top kernel.
  auto table = request({"--method", "recent"});
  ASSERT_EQ(table.code, 0) << table.err;
  EXPECT_NE(table.out.find("top_kernel"), std::string::npos);
  EXPECT_NE(table.out.find("sparse_refactor"), std::string::npos);

  // The metrics registry carries the live overhead gauge.
  auto metrics = request({"--method", "metrics"});
  ASSERT_EQ(metrics.code, 0) << metrics.err;
  EXPECT_NE(metrics.out.find("tfc.prof.overhead_ratio"), std::string::npos);

  auto bye = request({"--method", "shutdown"});
  EXPECT_EQ(bye.code, 0);
  server.join();
  ASSERT_EQ(serve_result.code, 0) << serve_result.err;

  // Same chip, same limit, same session-build workload through the CLI.
  const auto json_path = fs::temp_directory_path() /
                         ("tfcool_cli_prof_e2e_" + std::to_string(::getpid()) + ".json");
  fs::remove(json_path);
  auto cli = run({"profile", "--chip", "alpha", "--format", "json", "--out",
                  json_path.string()});
  ASSERT_EQ(cli.code, 0) << cli.err;
  std::ifstream jf(json_path);
  ASSERT_TRUE(jf.good());
  std::stringstream jbuf;
  jbuf << jf.rdbuf();
  const auto cli_doc = tfc::io::parse_json(jbuf.str());
  const auto& cli_kernels = cli_doc.at("kernels").as_array();

  auto count_of = [](const std::vector<tfc::io::JsonValue>& kernels,
                     const std::string& name) -> double {
    for (const auto& k : kernels) {
      if (k.string_or("name", "") == name) return k.number_or("count", -1.0);
    }
    return 0.0;
  };
  for (const char* kernel :
       {"greedy_deploy", "greedy_pass", "optimize_current", "engine_probe",
        "sparse_refactor", "et_solve", "runaway_limit"}) {
    EXPECT_EQ(count_of(svc_kernels, kernel), count_of(cli_kernels, kernel))
        << "kernel " << kernel << " count diverges between svc and CLI";
    EXPECT_GT(count_of(cli_kernels, kernel), 0.0) << kernel;
  }

  fs::remove(json_path);
  fs::remove(sock);
}

TEST(Cli, ImportedChipDesign) {
  namespace fs = std::filesystem;
  const auto dir = fs::temp_directory_path();
  const auto flp = dir / "tfcool_cli_test.flp";
  const auto ptrace = dir / "tfcool_cli_test.ptrace";
  {
    std::ofstream f(flp);
    f << "CORE 3e-3 3e-3 0 3e-3\nREST 3e-3 3e-3 3e-3 3e-3\nBOT 6e-3 3e-3 0 0\n";
    std::ofstream t(ptrace);
    t << "CORE REST BOT\n9.0 3.0 5.0\n8.0 3.5 4.0\n";
  }
  auto r = run({"design", "--flp", flp.string(), "--ptrace", ptrace.string(),
                "--no-full-cover"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("ok"), std::string::npos);
  fs::remove(flp);
  fs::remove(ptrace);
}

}  // namespace
}  // namespace tfc::cli
