#include "cli/cli.h"

#include <csignal>
#include <unistd.h>

#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <map>
#include <memory>
#include <optional>
#include <sstream>

#include "core/chip.h"
#include "core/cooling_system.h"
#include "core/sensitivity.h"
#include "engine/solve_context.h"
#include "floorplan/hotspot_import.h"
#include "io/design_json.h"
#include "io/spec_json.h"
#include "obs/build_info.h"
#include "obs/obs.h"
#include "par/thread_pool.h"
#include "power/power_profile.h"
#include "sim/scenario.h"
#include "svc/client.h"
#include "svc/server.h"
#include "thermal/validation.h"

namespace tfc::cli {

namespace {

struct ParsedArgs {
  std::string command;
  std::map<std::string, std::string> options;  // --key value (or "" for flags)
  /// Bare (non "--") arguments after the command, in order. Only commands
  /// with CommandSpec::allow_positionals accept any (today: `spec`).
  std::vector<std::string> positionals;
};

const char* kFlagOptions[] = {"--map",  "--help", "--no-full-cover", "--certify",
                              "--trace", "--raw", "--fault-injection",
                              "--no-dtm", "--tiles", "--cold-start", "--profile"};

struct CommandSpec;
const CommandSpec* find_command(const std::string& name);
bool option_allowed(const CommandSpec& spec, const std::string& key);

bool is_flag(const std::string& key) {
  for (const char* f : kFlagOptions) {
    if (key == f) return true;
  }
  return false;
}

std::optional<ParsedArgs> parse(const std::vector<std::string>& args, std::ostream& err) {
  ParsedArgs p;
  if (args.empty()) {
    err << "error: missing command\n";
    return std::nullopt;
  }
  p.command = args[0];
  for (std::size_t k = 1; k < args.size(); ++k) {
    const std::string& a = args[k];
    if (a.rfind("--", 0) != 0) {
      p.positionals.push_back(a);
      continue;
    }
    if (is_flag(a)) {
      p.options[a] = "";
      continue;
    }
    if (k + 1 >= args.size()) {
      // An unknown option with no value behind it is an unknown option, not
      // a missing value — diagnose it the same way run_cli's allowlist does.
      if (const CommandSpec* spec = find_command(p.command);
          spec != nullptr && !option_allowed(*spec, a)) {
        err << "error: unknown option '" << a << "' for command '" << p.command << "'\n";
      } else {
        err << "error: option '" << a << "' requires a value\n";
      }
      return std::nullopt;
    }
    p.options[a] = args[++k];
  }
  return p;
}

/// A number flag: one whole, finite token. Throws std::invalid_argument.
double parse_double(const ParsedArgs& p, const std::string& key, double fallback) {
  auto it = p.options.find(key);
  if (it == p.options.end()) return fallback;
  const std::string& text = it->second;
  double value = 0.0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size() || !std::isfinite(value)) {
    throw std::invalid_argument(key + " expects a finite number, got '" + text + "'");
  }
  return value;
}

/// A count flag: unsigned decimal digits that fit in 64 bits. Throws
/// std::invalid_argument.
std::size_t parse_size(const ParsedArgs& p, const std::string& key, std::size_t fallback) {
  auto it = p.options.find(key);
  if (it == p.options.end()) return fallback;
  const std::string& text = it->second;
  std::uint64_t value = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size()) {
    throw std::invalid_argument(key + " expects unsigned decimal digits, got '" + text +
                                "'");
  }
  return value;
}

std::string option_or(const ParsedArgs& p, const std::string& key,
                      const std::string& fallback) {
  auto it = p.options.find(key);
  return it == p.options.end() ? fallback : it->second;
}

/// Resolve --chip / --flp+--ptrace / --spec into a chip to design.
std::optional<core::Chip> load_chip(const ParsedArgs& p, std::ostream& err) {
  const auto chip_it = p.options.find("--chip");
  const auto flp_it = p.options.find("--flp");
  const auto spec_it = p.options.find("--spec");

  if (spec_it != p.options.end() &&
      (chip_it != p.options.end() || flp_it != p.options.end())) {
    err << "error: --spec excludes --chip and --flp (the spec file carries "
           "its own stack, grid, and power maps)\n";
    return std::nullopt;
  }

  if (chip_it != p.options.end() && flp_it != p.options.end()) {
    err << "error: --chip and --flp are mutually exclusive\n";
    return std::nullopt;
  }

  if (spec_it != p.options.end()) {
    std::shared_ptr<const thermal::StackSpec> spec;
    try {
      spec = std::make_shared<const thermal::StackSpec>(
          io::load_stack_spec(spec_it->second));
    } catch (const std::exception& e) {
      err << "error: bad spec '" << spec_it->second << "': " << e.what() << "\n";
      return std::nullopt;
    }
    return core::spec_chip(std::move(spec));
  }

  if (flp_it != p.options.end()) {
    const auto ptrace_it = p.options.find("--ptrace");
    if (ptrace_it == p.options.end()) {
      err << "error: --flp requires --ptrace\n";
      return std::nullopt;
    }
    std::ifstream flp(flp_it->second);
    if (!flp) {
      err << "error: cannot open floorplan '" << flp_it->second << "'\n";
      return std::nullopt;
    }
    std::ifstream ptrace(ptrace_it->second);
    if (!ptrace) {
      err << "error: cannot open power trace '" << ptrace_it->second << "'\n";
      return std::nullopt;
    }
    thermal::PackageGeometry geometry;
    geometry.tile_rows = parse_size(p, "--rows", 12);
    geometry.tile_cols = parse_size(p, "--cols", 12);
    geometry.die_width = parse_double(p, "--die-mm", 6.0) * 1e-3;
    geometry.die_height = geometry.die_width;
    core::Chip chip;
    try {
      auto plan = floorplan::rasterize_flp(floorplan::read_flp(flp), geometry.die_width,
                                           geometry.die_height, geometry.tile_rows,
                                           geometry.tile_cols);
      floorplan::apply_unit_powers(plan, floorplan::read_ptrace_worst_case(ptrace));
      chip.tile_powers = power::PowerProfile::from_floorplan(plan).tile_powers();
      chip.plan = std::make_shared<const floorplan::Floorplan>(std::move(plan));
      chip.spec = std::make_shared<const thermal::StackSpec>(
          thermal::StackSpec::single_die(geometry));
    } catch (const std::exception& e) {
      err << "error: import failed: " << e.what() << "\n";
      return std::nullopt;
    }
    chip.name = flp_it->second;
    return chip;
  }

  return core::builtin_chip(chip_it == p.options.end() ? "alpha" : chip_it->second);
}

/// The chip flags and --limit as a designed session.
std::optional<core::Session> open_session(const ParsedArgs& p, std::ostream& err) {
  auto chip = load_chip(p, err);
  if (!chip) return std::nullopt;
  return core::open_session(std::move(*chip), parse_double(p, "--limit", 85.0));
}

int cmd_design(const ParsedArgs& p, std::ostream& out, std::ostream& err) {
  auto chip = load_chip(p, err);
  if (!chip) return 2;
  const double limit = parse_double(p, "--limit", 85.0);
  const bool full_cover = p.options.find("--no-full-cover") == p.options.end();
  const bool certify = p.options.find("--certify") != p.options.end();

  auto res = core::design_with_fallback(*chip, limit, full_cover, certify);
  out << core::table_header() << "\n" << core::format_table_row(res) << "\n";
  if (p.options.count("--map") != 0) {
    out << "\n" << core::deployment_map(res.deployment);
  }
  if (res.convexity) {
    out << "convexity certificate: " << (res.convexity->certified ? "CERTIFIED" : "NOT certified")
        << " (lambda_m " << res.convexity->lambda_m << " A)\n";
  }
  const auto json_it = p.options.find("--json");
  if (json_it != p.options.end()) {
    std::ofstream jf(json_it->second);
    if (!jf) {
      err << "error: cannot write '" << json_it->second << "'\n";
      return 2;
    }
    jf << io::design_result_to_json(res) << "\n";
    out << "wrote " << json_it->second << "\n";
  }
  return res.success ? 0 : 1;
}

int cmd_table1(const ParsedArgs& p, std::ostream& out, std::ostream&) {
  const double limit = parse_double(p, "--limit", 85.0);
  out << core::table_header() << "\n";
  bool all_ok = true;
  for (std::size_t idx = 0; idx <= 10; ++idx) {
    auto res = core::design_with_fallback(
        core::builtin_chip(idx == 0 ? "alpha" : "hc" + std::to_string(idx)), limit, true);
    out << core::format_table_row(res) << "\n";
    all_ok = all_ok && res.success;
  }
  return all_ok ? 0 : 1;
}

int cmd_runaway(const ParsedArgs& p, std::ostream& out, std::ostream& err) {
  const auto session = open_session(p, err);
  if (!session) return 2;
  if (session->design.deployment.empty()) {
    err << "error: no TECs deployed; nothing to analyze\n";
    return 1;
  }
  const double lm = *session->lambda_m();
  // Full precision, so the line can be compared against an oracle at 1e-8.
  char lm_full[32];
  std::snprintf(lm_full, sizeof(lm_full), "%.17g", lm);
  out << "deployment: " << session->design.tec_count << " TECs; lambda_m = " << lm_full
      << " A\n";
  out << "i[A], peak[degC]\n";
  for (double f : {0.0, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 0.95, 0.99}) {
    auto op = session->context->solve(f * lm);
    out << f * lm << ", " << thermal::to_celsius(op->peak_tile_temperature) << "\n";
  }
  return 0;
}

int cmd_sweep(const ParsedArgs& p, std::ostream& out, std::ostream& err) {
  core::SweepRequest request;
  request.points = parse_size(p, "--points", request.points);
  request.max_fraction = parse_double(p, "--max-fraction", request.max_fraction);
  request.validate();
  const auto session = open_session(p, err);
  if (!session) return 2;
  out << "current_a,peak_degc,ptec_w\n";
  for (const core::SweepRow& row : core::sweep(*session, request)) {
    out << row.current << "," << row.peak_celsius << "," << row.tec_power << "\n";
  }
  return 0;
}

int cmd_sensitivity(const ParsedArgs& p, std::ostream& out, std::ostream& err) {
  // Each perturbed device assembles its own system: only the design is needed.
  const auto chip = load_chip(p, err);
  if (!chip) return 2;
  const core::DesignResult design = core::design_with_fallback(
      *chip, parse_double(p, "--limit", 85.0), /*run_full_cover=*/false);
  if (design.deployment.empty()) {
    err << "error: no TECs deployed; nothing to analyze\n";
    return 1;
  }
  auto rows = core::device_sensitivities(chip->spec, chip->tile_powers,
                                         tec::TecDeviceParams::chowdhury_superlattice(),
                                         design.deployment);
  out << "parameter,d_peak_per_rel,d_lambda_per_rel,d_iopt_per_rel\n";
  for (const auto& r : rows) {
    out << r.parameter << "," << r.peak_per_unit_relative << ","
        << r.lambda_per_unit_relative << "," << r.current_per_unit_relative << "\n";
  }
  return 0;
}

int cmd_version(const ParsedArgs&, std::ostream& out, std::ostream&) {
  out << "tfcool " << TFC_BUILD_VERSION << " (git " << TFC_BUILD_GIT_DESCRIBE << ")\n"
      << "compiler: " << TFC_BUILD_COMPILER << "\n"
      << "build type: " << TFC_BUILD_TYPE << "\n"
      << "obs compile-time level: " << obs::compile_level_name() << "\n";
  return 0;
}

int cmd_validate(const ParsedArgs& p, std::ostream& out, std::ostream& err) {
  auto chip = load_chip(p, err);
  if (!chip) return 2;
  auto rep = thermal::validate_against_reference(*chip->spec, TileMask(), {},
                                                 chip->tile_powers);
  out << "coarse nodes: " << rep.coarse_nodes << ", reference nodes: " << rep.reference_nodes
      << "\n";
  out << "max |diff| = " << rep.max_abs_diff << " degC, mean |diff| = " << rep.mean_abs_diff
      << " degC\n";
  return rep.max_abs_diff < 1.5 ? 0 : 1;
}

/// `tfcool spec validate|show FILE` — load a declarative package spec
/// end-to-end (parse, import referenced floorplans, validate) and either
/// report its identity + dimensions or print the canonical JSON document.
int cmd_spec(const ParsedArgs& p, std::ostream& out, std::ostream& err) {
  if (p.positionals.size() != 2 ||
      (p.positionals[0] != "validate" && p.positionals[0] != "show")) {
    err << "usage: tfcool spec <validate|show> FILE\n";
    return 2;
  }
  const std::string& action = p.positionals[0];
  const std::string& path = p.positionals[1];
  thermal::StackSpec spec;
  try {
    spec = io::load_stack_spec(path);
  } catch (const std::exception& e) {
    err << "error: " << path << ": " << e.what() << "\n";
    return 1;
  }
  if (action == "show") {
    out << io::spec_to_json(spec).dump() << "\n";
    return 0;
  }
  out << "ok: " << spec.name << "@" << io::spec_content_hash(spec) << "\n"
      << "chips: " << spec.chips.size() << ", dies: " << spec.dies().size()
      << ", virtual grid: " << spec.total_tile_rows() << "x" << spec.tile_cols()
      << "\n"
      << "tec-capable sites: " << spec.tec_allowed_tiles().count() << "\n";
  return 0;
}

/// Transient closed-loop scenario, run locally: design a deployment for the
/// chip, integrate the scenario, and print NDJSON — one frame per line, then
/// a {"summary": ...} footer. Deterministic for a fixed option set, so the
/// output is byte-diffable across thread counts.
int cmd_simulate(const ParsedArgs& p, std::ostream& out, std::ostream& err) {
  sim::SimulateRequest request;
  request.benchmark = option_or(p, "--benchmark", request.benchmark);
  request.dt = parse_double(p, "--dt", request.dt);
  request.steps = parse_size(p, "--steps", request.steps);
  request.frame_every = parse_size(p, "--frame-every", request.frame_every);
  request.control_every = parse_size(p, "--control-every", request.control_every);
  request.dtm = p.options.count("--no-dtm") == 0;
  request.tiles = p.options.count("--tiles") != 0;
  request.cold_start = p.options.count("--cold-start") != 0;
  if (p.options.count("--current")) request.current = parse_double(p, "--current", 0.0);
  if (p.options.count("--tec-on")) request.tec_on = parse_size(p, "--tec-on", 0);
  if (p.options.count("--tec-off")) request.tec_off = parse_size(p, "--tec-off", 0);
  request.validate();
  const auto session = open_session(p, err);
  if (!session) return 2;

  const floorplan::Floorplan& plan = *session->chip.plan;
  auto summary = sim::simulate(*session, request, [&](const sim::Frame& frame) {
    out << sim::frame_to_json(frame, plan).dump() << "\n";
    return true;
  });
  io::JsonValue footer = io::JsonValue::make_object();
  footer.set("summary", sim::summary_to_json(summary));
  out << footer.dump() << "\n";
  return summary.limit_held_at_end ? 0 : 1;
}

/// Run the canonical design workload under the continuous profiler and
/// report where the time went. The workload is a service session build:
/// core::open_session and λ_m, so the per-kernel *counts* here match a
/// `design` request served under `serve --profile` exactly (wall times vary
/// run to run; counts do not).
int cmd_profile(const ParsedArgs& p, std::ostream& out, std::ostream& err) {
  auto chip = load_chip(p, err);
  if (!chip) return 2;
  const double limit = parse_double(p, "--limit", 85.0);
  const std::string format = option_or(p, "--format", "table");
  if (format != "table" && format != "json" && format != "collapsed") {
    err << "error: --format must be table, json, or collapsed\n";
    return 2;
  }

  auto& prof = obs::prof::Profiler::global();
  prof.enable();
  prof.snapshot(true);  // drop anything recorded before the workload

  const core::Session session = core::open_session(std::move(*chip), limit);
  const std::optional<double> lambda_m = session.lambda_m();

  const obs::prof::ProfileSnapshot snap = prof.snapshot(false);
  prof.disable();

  std::string rendered;
  if (format == "json") {
    rendered = obs::prof::to_json(snap);
    rendered += '\n';
  } else if (format == "collapsed") {
    rendered = obs::prof::to_collapsed(snap);
  } else {
    std::ostringstream t;
    t << "profile: " << session.chip.name << " design, " << session.design.tec_count
      << " TECs";
    if (lambda_m) t << ", lambda_m " << *lambda_m << " A";
    t << "\n";
    const double wall_ms = double(snap.wall_ns) * 1e-6;
    t << "wall " << std::fixed << std::setprecision(1) << wall_ms << " ms, "
      << snap.total_count() << " frames, self coverage "
      << std::setprecision(1)
      << (snap.wall_ns > 0
              ? 100.0 * double(snap.total_self_ns()) / double(snap.wall_ns)
              : 0.0)
      << "%, profiler overhead " << std::setprecision(2)
      << 100.0 * snap.overhead_ratio << "%\n\n";
    t << std::left << std::setw(28) << "kernel" << std::right << std::setw(9)
      << "count" << std::setw(12) << "self_ms" << std::setw(12) << "total_ms"
      << std::setw(8) << "self%" << "\n";
    for (const auto& k : obs::prof::aggregate_by_name(snap)) {
      t << std::left << std::setw(28) << k.name << std::right << std::setw(9)
        << k.count << std::fixed << std::setprecision(2) << std::setw(12)
        << double(k.self_ns) * 1e-6 << std::setw(12)
        << double(k.total_ns) * 1e-6 << std::setprecision(1) << std::setw(7)
        << (snap.wall_ns > 0 ? 100.0 * double(k.self_ns) / double(snap.wall_ns)
                             : 0.0)
        << "%\n";
    }
    rendered = t.str();
  }

  if (const std::string path = option_or(p, "--out", ""); !path.empty()) {
    std::ofstream f(path);
    if (!f) {
      err << "error: cannot write '" << path << "'\n";
      return 2;
    }
    f << rendered;
    out << "wrote " << path << "\n";
  } else {
    out << rendered;
  }
  return session.design.success ? 0 : 1;
}

// --- service commands -------------------------------------------------------

/// Stop-pipe fd for the signal handler (write() is async-signal-safe).
std::atomic<int> g_serve_stop_fd{-1};

extern "C" void tfc_cli_serve_signal_handler(int) {
  const int fd = g_serve_stop_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    [[maybe_unused]] ssize_t n = ::write(fd, "s", 1);
  }
}

/// Route SIGINT/SIGTERM into the server's stop pipe for the scope of run().
class ServeSignalScope {
 public:
  explicit ServeSignalScope(int stop_fd) {
    g_serve_stop_fd.store(stop_fd, std::memory_order_relaxed);
    struct sigaction action {};
    action.sa_handler = tfc_cli_serve_signal_handler;
    sigemptyset(&action.sa_mask);
    ::sigaction(SIGINT, &action, &saved_int_);
    ::sigaction(SIGTERM, &action, &saved_term_);
  }

  ~ServeSignalScope() {
    ::sigaction(SIGINT, &saved_int_, nullptr);
    ::sigaction(SIGTERM, &saved_term_, nullptr);
    g_serve_stop_fd.store(-1, std::memory_order_relaxed);
  }

 private:
  struct sigaction saved_int_ {};
  struct sigaction saved_term_ {};
};

int cmd_serve(const ParsedArgs& p, std::ostream& out, std::ostream& err) {
  svc::ServerOptions opts;
  opts.socket_path = option_or(p, "--socket", "");
  opts.listen = option_or(p, "--listen", "");
  if (opts.socket_path.empty() && opts.listen.empty()) {
    err << "error: serve requires --socket PATH and/or --listen HOST:PORT\n";
    return 2;
  }
  opts.workers = parse_size(p, "--workers", 2);
  opts.queue_capacity = parse_size(p, "--queue", 64);
  opts.cache_capacity = parse_size(p, "--cache", 8);
  opts.default_deadline_ms = parse_double(p, "--deadline-ms", 60000.0);
  opts.prom_listen = option_or(p, "--prom-addr", "");
  opts.slow_ms = parse_double(p, "--slow-ms", 0.0);
  opts.recorder_capacity = parse_size(p, "--recent", 128);
  opts.trace_path = option_or(p, "--trace-file", "");
  opts.audit_every = parse_size(p, "--audit-every", 8);
  opts.cross_check_every = parse_size(p, "--cross-check-every", 4);
  opts.fault_injection = p.options.count("--fault-injection") != 0;
  opts.profile = p.options.count("--profile") != 0;
  if (opts.queue_capacity == 0) {
    err << "error: --queue must be >= 1\n";
    return 2;
  }
  if (!(opts.default_deadline_ms > 0.0)) {
    err << "error: --deadline-ms must be positive\n";
    return 2;
  }
  if (opts.slow_ms < 0.0) {
    err << "error: --slow-ms must be >= 0\n";
    return 2;
  }
  if (opts.recorder_capacity == 0) {
    err << "error: --recent must be >= 1\n";
    return 2;
  }

  try {
    svc::Server server(opts);
    ServeSignalScope signals(server.signal_fd());
    out << "serving";
    if (!opts.socket_path.empty()) out << " on unix:" << opts.socket_path;
    if (server.tcp_port() != 0) out << " on tcp:" << server.tcp_port();
    if (server.prom_port() != 0) out << " metrics on http:" << server.prom_port();
    out << " (" << opts.workers << " workers, queue " << opts.queue_capacity
        << ", cache " << opts.cache_capacity << ")" << std::endl;
    server.run();
    out << "server stopped (drained)" << std::endl;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 2;
  }
  return 0;
}

/// Render a `recent` reply as a fixed-width table, newest request first.
void print_recent_table(const io::JsonValue& reply, std::ostream& out) {
  const io::JsonValue& result = reply.at("result");
  const auto& requests = result.at("requests").as_array();
  out << "recent requests: " << requests.size() << " shown, "
      << std::size_t(result.number_or("total", 0.0)) << " recorded (capacity "
      << std::size_t(result.number_or("capacity", 0.0)) << ")\n";
  if (requests.empty()) return;

  out << std::left << std::setw(6) << "seq" << std::setw(9) << "method"
      << std::setw(7) << "chip" << std::setw(6) << "cache" << std::setw(19)
      << "status" << std::right << std::setw(7) << "frames" << std::setw(10)
      << "queue_ms" << std::setw(10)
      << "lat_ms" << std::setw(9) << "fact_ms" << std::setw(10) << "solve_ms"
      << std::setw(7) << "facts" << std::setw(7) << "cg_it" << std::setw(7)
      << "audit" << std::setw(10) << "resid" << std::setw(10) << "balance"
      << "  " << std::left << std::setw(22) << "top_kernel" << std::right
      << std::setw(9) << "self_ms" << "\n";
  for (const io::JsonValue& r : requests) {
    const io::JsonValue* chip = r.get("chip");
    const io::JsonValue* cache = r.get("cache");
    const io::JsonValue* audit = r.get("audit");
    out << std::left << std::setw(6) << std::size_t(r.number_or("seq", 0.0))
        << std::setw(9) << r.string_or("method", "?") << std::setw(7)
        << (chip != nullptr && chip->is_string() ? chip->as_string() : "-")
        << std::setw(6)
        << (cache != nullptr && cache->is_string() ? cache->as_string() : "-")
        << std::setw(19) << r.string_or("status", "?") << std::right
        << std::setw(7) << std::size_t(r.number_or("frames", 0.0))
        << std::fixed << std::setprecision(2) << std::setw(10)
        << r.number_or("queue_wait_ms", 0.0) << std::setw(10)
        << r.number_or("latency_ms", 0.0) << std::setw(9)
        << r.number_or("factorize_ms", 0.0) << std::setw(10)
        << r.number_or("solve_ms", 0.0) << std::defaultfloat << std::setw(7)
        << std::size_t(r.number_or("factorizations", 0.0)) << std::setw(7)
        << std::size_t(r.number_or("cg_iterations", 0.0)) << std::setw(7)
        << (audit != nullptr && audit->is_string() ? audit->as_string() : "-");
    const double resid = r.number_or("rel_residual", -1.0);
    const double balance = r.number_or("energy_balance_rel", -1.0);
    auto put_ratio = [&out](double v) {
      if (v < 0.0) {
        out << std::setw(10) << "-";
      } else {
        out << std::scientific << std::setprecision(1) << std::setw(10) << v
            << std::defaultfloat;
      }
    };
    put_ratio(resid);
    put_ratio(balance);
    const io::JsonValue* top = r.get("top_kernel");
    out << "  " << std::left << std::setw(22)
        << (top != nullptr && top->is_string() ? top->as_string() : "-")
        << std::right << std::fixed << std::setprecision(2) << std::setw(9)
        << r.number_or("top_self_ms", 0.0) << std::defaultfloat;
    out << "\n";
  }
}

/// Whether exactly one of --socket PATH or --connect HOST:PORT names the
/// service that `request` and `health` talk to (a message on \p err if not).
bool one_service_address(const ParsedArgs& p, std::ostream& err) {
  if (option_or(p, "--socket", "").empty() != option_or(p, "--connect", "").empty()) {
    return true;
  }
  err << "error: " << p.command
      << " needs exactly one of --socket PATH or --connect HOST:PORT\n";
  return false;
}

/// Connects to the service named by --socket or --connect with the
/// --timeout-ms reply timeout. Throws on a transport failure.
svc::Client connect_service(const ParsedArgs& p) {
  const std::string socket_path = option_or(p, "--socket", "");
  svc::Client client = socket_path.empty()
                           ? [&] {
                               const auto [host, port] =
                                   svc::parse_listen_spec(option_or(p, "--connect", ""));
                               return svc::Client::connect_tcp(host, port);
                             }()
                           : svc::Client::connect_unix(socket_path);
  client.set_receive_timeout_ms(parse_double(p, "--timeout-ms", 120000.0));
  return client;
}

int cmd_request(const ParsedArgs& p, std::ostream& out, std::ostream& err) {
  const std::string method = option_or(p, "--method", "");
  if (method.empty()) {
    err << "error: request requires --method NAME\n";
    return 2;
  }
  if (!one_service_address(p, err)) return 2;

  io::JsonValue request = io::JsonValue::make_object();
  if (const std::string id = option_or(p, "--id", ""); !id.empty()) {
    request.set("id", io::JsonValue::make_string(id));
  } else {
    request.set("id", io::JsonValue::make_number(1));
  }
  request.set("method", io::JsonValue::make_string(method));
  if (const std::string params_text = option_or(p, "--params", ""); !params_text.empty()) {
    io::JsonValue params;
    try {
      params = io::parse_json(params_text);
    } catch (const io::JsonParseError& e) {
      err << "error: bad --params: " << e.what() << "\n";
      return 2;
    }
    if (!params.is_object()) {
      err << "error: --params must be a JSON object\n";
      return 2;
    }
    request.set("params", params);
  }
  if (const double deadline = parse_double(p, "--deadline-ms", 0.0); deadline > 0.0) {
    request.set("deadline_ms", io::JsonValue::make_number(deadline));
  }
  if (p.options.count("--trace") != 0) {
    request.set("trace", io::JsonValue::make_bool(true));
  }
  if (const std::string trace_id = option_or(p, "--trace-id", ""); !trace_id.empty()) {
    request.set("trace_id", io::JsonValue::make_string(trace_id));
  }

  try {
    svc::Client client = connect_service(p);
    client.send_raw(request.dump());
    // A streamed method (simulate) sends zero or more non-final frame lines
    // (no "ok" member) before the final reply. Pass frames through as they
    // arrive — in both raw and pretty modes — then render the final reply.
    std::string reply_line;
    io::JsonValue reply;
    while (true) {
      reply_line = client.read_line();
      reply = io::parse_json(reply_line);
      if (reply.is_object() && reply.has("ok")) break;
      out << reply_line << std::endl;
    }
    const bool ok = reply.bool_or("ok", false);
    if (method == "recent" && ok && p.options.count("--raw") == 0) {
      print_recent_table(reply, out);
    } else {
      out << reply_line << std::endl;
    }
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 2;
  }
}

/// Ask a running service for its numerical-health verdict and render it.
/// Exit code: 0 = green, 1 = degraded/red (or error reply), 2 = transport.
int cmd_health(const ParsedArgs& p, std::ostream& out, std::ostream& err) {
  if (!one_service_address(p, err)) return 2;

  io::JsonValue request = io::JsonValue::make_object();
  request.set("id", io::JsonValue::make_number(1));
  request.set("method", io::JsonValue::make_string("health"));

  try {
    svc::Client client = connect_service(p);
    const std::string reply_line = client.call_raw(request.dump());
    const io::JsonValue reply = io::parse_json(reply_line);
    if (p.options.count("--raw") != 0) {
      out << reply_line << std::endl;
    }
    if (!reply.bool_or("ok", false)) {
      if (p.options.count("--raw") == 0) out << reply_line << std::endl;
      return 1;
    }
    const io::JsonValue& result = reply.at("result");
    const std::string verdict = result.string_or("verdict", "?");
    out << "health: " << verdict << " ("
        << std::size_t(result.number_or("samples", 0.0)) << " certificates, "
        << std::size_t(result.number_or("violations", 0.0)) << " violations; "
        << "audit 1-in-" << std::size_t(result.number_or("audit_every", 0.0))
        << ", cross-check 1-in-"
        << std::size_t(result.number_or("cross_check_every", 0.0)) << ", window "
        << std::size_t(result.number_or("window", 0.0)) << ")\n";

    if (const io::JsonValue* scopes = result.get("scopes");
        scopes != nullptr && scopes->is_array() && !scopes->as_array().empty()) {
      out << std::left << std::setw(28) << "scope" << std::right << std::setw(8)
          << "certs" << std::setw(7) << "viol" << std::setw(7) << "degr"
          << std::setw(12) << "worst_resid" << std::setw(12) << "worst_bal"
          << std::setw(8) << "xchk" << std::setw(11) << "drift" << "\n";
      for (const io::JsonValue& s : scopes->as_array()) {
        auto ratio_text = [](const io::JsonValue& v, const char* key) {
          const io::JsonValue* field = v.get(key);
          if (field == nullptr || !field->is_number() || field->as_number() < 0.0) {
            return std::string("-");
          }
          char buf[32];
          std::snprintf(buf, sizeof(buf), "%.1e", field->as_number());
          return std::string(buf);
        };
        out << std::left << std::setw(28) << s.string_or("scope", "?")
            << std::right << std::setw(8)
            << std::size_t(s.number_or("samples", 0.0)) << std::setw(7)
            << std::size_t(s.number_or("violations", 0.0)) << std::setw(7)
            << std::size_t(s.number_or("degraded", 0.0)) << std::setw(12)
            << ratio_text(s, "worst_rel_residual") << std::setw(12)
            << ratio_text(s, "worst_energy_balance_rel") << std::setw(8)
            << std::size_t(s.number_or("cross_checks", 0.0)) << std::setw(11)
            << ratio_text(s, "last_cross_check_drift") << "\n";
      }
    }
    if (const io::JsonValue* offenders = result.get("offenders");
        offenders != nullptr && offenders->is_array() &&
        !offenders->as_array().empty()) {
      out << "offenders:";
      for (const io::JsonValue& o : offenders->as_array()) {
        out << " " << (o.is_string() ? o.as_string() : std::string("?"));
      }
      out << "\n";
    }
    return verdict == "green" ? 0 : 1;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 2;
  }
}

/// Scoped observability configuration for one CLI invocation: applies
/// --log-level / --log-json / --trace-out, restores the global logger on
/// destruction (run_cli is re-entrant for tests), and exports trace and
/// metrics files in finish().
class ObsScope {
 public:
  ObsScope()
      : saved_level_(obs::Logger::global().level()),
        saved_sinks_(obs::Logger::global().sinks()) {}

  ~ObsScope() {
    if (tracing_) obs::TraceCollector::global().disable();
    if (profiling_) obs::prof::Profiler::global().disable();
    obs::Logger::global().set_level(saved_level_);
    obs::Logger::global().set_sinks(saved_sinks_);
  }

  /// Returns false (with a message on \p err) on a bad option value.
  bool configure(const ParsedArgs& p, std::ostream& err) {
    if (auto it = p.options.find("--log-level"); it != p.options.end()) {
      obs::Level level;
      if (!obs::parse_level(it->second, level)) {
        err << "error: unknown log level '" << it->second
            << "' (use trace|debug|info|warn|error|off)\n";
        return false;
      }
      obs::Logger::global().set_level(level);
    }
    if (auto it = p.options.find("--log-json"); it != p.options.end()) {
      try {
        obs::Logger::global().add_sink(std::make_shared<obs::JsonlSink>(it->second));
      } catch (const std::exception& e) {
        err << "error: " << e.what() << "\n";
        return false;
      }
    }
    if (auto it = p.options.find("--trace-out"); it != p.options.end()) {
      trace_path_ = it->second;
      tracing_ = true;
      obs::TraceCollector::global().clear();
      obs::TraceCollector::global().enable();
    }
    if (auto it = p.options.find("--profile-out"); it != p.options.end()) {
      profile_path_ = it->second;
      profiling_ = true;
      auto& prof = obs::prof::Profiler::global();
      prof.enable();
      prof.snapshot(true);  // fresh window: profile only this invocation
    }
    if (auto it = p.options.find("--metrics-out"); it != p.options.end()) {
      metrics_path_ = it->second;
      // Pre-register the headline solver metrics so the exported document
      // has a stable schema (zero-valued when a command never hits a path).
      auto& m = obs::MetricsRegistry::global();
      m.counter("cg.solves");
      m.histogram("cg.iterations");
      m.histogram("cg.final_residual");
      m.counter("greedy.candidate_evaluations");
      m.counter("greedy.passes");
      m.counter("cholesky.sparse.factors");
    }
    return true;
  }

  /// Write --trace-out / --metrics-out files. Returns false on I/O failure.
  bool finish(std::ostream& out, std::ostream& err) {
    bool ok = true;
    if (tracing_) {
      obs::TraceCollector::global().disable();
      std::ofstream tf(trace_path_);
      if (!tf) {
        err << "error: cannot write '" << trace_path_ << "'\n";
        ok = false;
      } else {
        tf << obs::TraceCollector::global().to_chrome_json() << "\n";
        out << "wrote " << trace_path_ << " ("
            << obs::TraceCollector::global().event_count() << " spans)\n";
      }
      obs::TraceCollector::global().clear();
      tracing_ = false;
    }
    if (profiling_) {
      const obs::prof::ProfileSnapshot snap =
          obs::prof::Profiler::global().snapshot(true);
      obs::prof::Profiler::global().disable();
      profiling_ = false;
      std::ofstream pf(profile_path_);
      if (!pf) {
        err << "error: cannot write '" << profile_path_ << "'\n";
        ok = false;
      } else {
        pf << obs::prof::to_collapsed(snap);
        out << "wrote " << profile_path_ << " (" << snap.total_count()
            << " frames)\n";
      }
    }
    if (!metrics_path_.empty()) {
      std::ofstream mf(metrics_path_);
      if (!mf) {
        err << "error: cannot write '" << metrics_path_ << "'\n";
        ok = false;
      } else {
        mf << obs::MetricsRegistry::global().to_json() << "\n";
        out << "wrote " << metrics_path_ << "\n";
      }
    }
    return ok;
  }

 private:
  obs::Level saved_level_;
  std::vector<std::shared_ptr<obs::Sink>> saved_sinks_;
  bool tracing_ = false;
  bool profiling_ = false;
  std::string trace_path_;
  std::string profile_path_;
  std::string metrics_path_;
};

// --- command registry -------------------------------------------------------

using CommandHandler = int (*)(const ParsedArgs&, std::ostream&, std::ostream&);

struct CommandSpec {
  const char* name;
  const char* summary;  ///< one line for the global usage text
  /// Option keys this command accepts beyond the global execution /
  /// observability set (nullptr-terminated).
  const char* const* options;
  /// Per-command option help lines (shown by `tfcool <command> --help`).
  const char* option_help;
  CommandHandler handler;
  /// Whether the command designs a chip it reads through load_chip: it then
  /// accepts every kChipOptions key and lists them under "chip selection".
  bool selects_chip = false;
  /// Whether bare (non "--") arguments after the command name are accepted
  /// (the handler reads them from ParsedArgs::positionals).
  bool allow_positionals = false;
};

const char* kGlobalOptions[] = {"--threads",   "--log-level",   "--log-json",
                                "--trace-out", "--metrics-out", "--profile-out",
                                "--help",      nullptr};

/// What load_chip reads: every chip-selecting command accepts all of them.
const char* kChipOptions[] = {"--chip", "--flp",    "--ptrace", "--rows",
                              "--cols", "--die-mm", "--spec",   nullptr};

const char kChipOptionHelp[] =
    "\nchip selection:\n"
    "  --chip alpha|hc<N>      built-in benchmark chip (default alpha)\n"
    "  --flp F --ptrace P      import HotSpot floorplan + power trace\n"
    "  --rows R --cols C       tile grid for --flp imports only (default\n"
    "                          12x12; a --spec package carries its own\n"
    "                          per-chip grids and may use any resolution)\n"
    "  --die-mm W              die side for --flp imports [mm] (default 6)\n"
    "  --spec FILE             declarative package spec (JSON, see\n"
    "                          docs/PACKAGES.md): layer stacks, 3-D stacked\n"
    "                          dies, multi-chip packages, arbitrary grids;\n"
    "                          excludes --chip/--flp\n";

const char* kDesignOptions[] = {"--limit", "--map", "--json", "--certify",
                                "--no-full-cover", nullptr};

const char* kLimitOptions[] = {"--limit", nullptr};

const char* kSweepOptions[] = {"--limit", "--points", "--max-fraction", nullptr};

const char* kNoOptions[] = {nullptr};

const char* kSimulateOptions[] = {"--limit",       "--benchmark", "--steps",
                                  "--dt",          "--frame-every", "--control-every",
                                  "--current",     "--tec-on",    "--tec-off",
                                  "--no-dtm",      "--tiles",     "--cold-start",
                                  nullptr};

const char* kServeOptions[] = {"--socket",      "--listen",   "--workers",
                               "--queue",       "--cache",    "--deadline-ms",
                               "--prom-addr",   "--slow-ms",  "--recent",
                               "--trace-file",  "--audit-every",
                               "--cross-check-every", "--fault-injection",
                               "--profile",     nullptr};

const char* kProfileOptions[] = {"--limit", "--format", "--out", nullptr};

const char* kHealthOptions[] = {"--socket", "--connect", "--timeout-ms",
                                "--raw", nullptr};

const char* kRequestOptions[] = {"--socket",      "--connect", "--method",
                                 "--params",      "--id",      "--deadline-ms",
                                 "--timeout-ms",  "--trace",   "--trace-id",
                                 "--raw",         nullptr};

const CommandSpec kCommands[] = {
    {"design", "solve the cooling-system configuration problem", kDesignOptions,
     "  --limit C               temperature limit [degC] (default 85)\n"
     "  --map                   print the deployment tile map\n"
     "  --json PATH             write the result as JSON\n"
     "  --certify               run the Theorem-4 convexity certificate\n"
     "  --no-full-cover         skip the full-cover comparison\n",
     cmd_design, /*selects_chip=*/true},
    {"table1", "reproduce the paper's Table I (all 11 benchmark chips)",
     kLimitOptions, "  --limit C               temperature limit [degC] (default 85)\n",
     cmd_table1},
    {"runaway", "report lambda_m and a supply-current sweep", kLimitOptions,
     "  --limit C               design temperature limit [degC] (default 85)\n",
     cmd_runaway, /*selects_chip=*/true},
    {"validate", "compact-model vs fine-grid agreement", kNoOptions, "",
     cmd_validate, /*selects_chip=*/true},
    {"sweep", "CSV sweep of peak temperature vs supply current", kSweepOptions,
     "  --limit C               design temperature limit [degC] (default 85)\n"
     "  --points N              sweep points (default 25)\n"
     "  --max-fraction F        top of the sweep as a fraction of lambda_m\n"
     "                          (default 0.95)\n",
     cmd_sweep, /*selects_chip=*/true},
    {"sensitivity", "CSV of device-parameter sensitivities at the design",
     kLimitOptions,
     "  --limit C               design temperature limit [degC] (default 85)\n",
     cmd_sensitivity, /*selects_chip=*/true},
    {"simulate", "transient closed-loop DTM scenario, printed as NDJSON",
     kSimulateOptions,
     "  --limit C               DTM temperature limit [degC] (default 85)\n"
     "  --benchmark NAME        workload phase trace (default bench00)\n"
     "  --steps N               backward-Euler steps (default 500)\n"
     "  --dt S                  integration step [s] (default 1e-3)\n"
     "  --frame-every N         emit a frame every N steps (default 10)\n"
     "  --control-every N       controller decides every N steps (default 10)\n"
     "  --current A             TEC supply ceiling [A] (default: the design's\n"
     "                          optimum; 0 disables the TEC)\n"
     "  --tec-on N              force the TEC on from step N (schedule floor)\n"
     "  --tec-off N             schedule the TEC off from step N\n"
     "  --no-dtm                open loop: schedule only, no controller\n"
     "  --tiles                 include per-tile temperatures in each frame\n"
     "  --cold-start            start from uniform ambient instead of the\n"
     "                          passive steady state\n"
     "\nprints one NDJSON frame per line, then a {\"summary\": ...} footer.\n"
     "output is deterministic (byte-identical at any --threads).\n"
     "exit code: 0 = limit held at the end, 1 = not held, 2 = usage error.\n",
     cmd_simulate, /*selects_chip=*/true},
    {"serve", "run the persistent solver service (see docs/SERVICE.md)",
     kServeOptions,
     "  --socket PATH           listen on a unix-domain socket at PATH\n"
     "  --listen HOST:PORT      also/instead listen on TCP (IPv4; port 0 =\n"
     "                          ephemeral, the bound port is printed)\n"
     "  --workers N             request workers (default 2)\n"
     "  --queue N               bounded queue capacity; a full queue sheds\n"
     "                          load with an 'overloaded' reply (default 64)\n"
     "  --cache N               LRU session-cache capacity (default 8)\n"
     "  --deadline-ms D         default per-request deadline (default 60000)\n"
     "  --prom-addr HOST:PORT   serve Prometheus text on plain-HTTP\n"
     "                          GET /metrics (port 0 = ephemeral, printed)\n"
     "  --slow-ms D             WARN with the span tree when a request's\n"
     "                          latency reaches D ms (default off)\n"
     "  --recent N              flight-recorder capacity (default 128)\n"
     "  --trace-file PATH       append each request's span tree as JSONL\n"
     "  --audit-every N         numerical-health audit of 1-in-N solves\n"
     "                          (default 8; 0 disables)\n"
     "  --cross-check-every N   CG cross-check of 1-in-N audited cache hits\n"
     "                          (default 4; 0 disables)\n"
     "  --fault-injection       enable the test-only 'inject' method\n"
     "  --profile               enable the continuous profiler (adds the\n"
     "                          'profile' method and tfc_prof_overhead_ratio\n"
     "                          to /metrics)\n"
     "\nstops gracefully (drain, then exit 0) on SIGINT/SIGTERM or a\n"
     "'shutdown' request.\n",
     cmd_serve},
    {"request", "send one request to a running service and print the reply",
     kRequestOptions,
     "  --socket PATH           connect to a unix-domain socket\n"
     "  --connect HOST:PORT     connect over TCP instead\n"
     "  --method NAME           ping|stats|metrics|recent|health|profile|\n"
     "                          solve|design|runaway|sweep|simulate|shutdown\n"
     "  --params JSON           request parameters as a JSON object; solver\n"
     "                          methods accept {\"spec\": PATH} to address a\n"
     "                          declarative package (path read server-side)\n"
     "  --id ID                 request id to echo (default 1)\n"
     "  --deadline-ms D         server-side deadline for this request\n"
     "  --timeout-ms T          client-side reply timeout (default 120000)\n"
     "  --trace                 ask for this request's span tree inline\n"
     "  --trace-id ID           client-chosen trace id (echoed in the reply)\n"
     "  --raw                   print the raw reply line even for 'recent'\n"
     "\n'recent' prints a table of the service's last requests; all other\n"
     "methods print the raw reply line. streamed methods (simulate) print\n"
     "each frame line as it arrives, then the final reply.\n"
     "exit code: 0 = ok reply, 1 = error reply, 2 = transport/usage error.\n",
     cmd_request},
    {"health", "numerical-health verdict of a running service", kHealthOptions,
     "  --socket PATH           connect to a unix-domain socket\n"
     "  --connect HOST:PORT     connect over TCP instead\n"
     "  --timeout-ms T          client-side reply timeout (default 120000)\n"
     "  --raw                   also print the raw reply line\n"
     "\nprints the service's green/degraded/red verdict, per-session audit\n"
     "statistics, and any offending sessions.\n"
     "exit code: 0 = green, 1 = degraded/red, 2 = transport/usage error.\n",
     cmd_health},
    {"profile", "run the design workload under the profiler and report it",
     kProfileOptions,
     "  --limit C               temperature limit [degC] (default 85)\n"
     "  --format F              table|json|collapsed (default table)\n"
     "  --out PATH              write the report to PATH instead of stdout\n"
     "\nruns the same workload a service session build runs (design with the\n"
     "theta-limit fallback loop, then lambda_m) under the continuous\n"
     "profiler; 'table' prints per-kernel self times sorted descending,\n"
     "'collapsed' is flamegraph.pl-compatible, 'json' is the same tree the\n"
     "service 'profile' method returns.\n",
     cmd_profile, /*selects_chip=*/true},
    {"spec", "validate or canonicalize a declarative package spec", kNoOptions,
     "  (none beyond the global set)\n"
     "\nsubcommands:\n"
     "  validate FILE           load + validate end-to-end (parse, import\n"
     "                          referenced floorplans, structural checks);\n"
     "                          print name@content-hash and dimensions\n"
     "  show FILE               print the canonical JSON document (fixed key\n"
     "                          order, every field explicit — the form the\n"
     "                          content hash is computed over)\n"
     "\nexit code: 0 = valid, 1 = invalid or unreadable, 2 = usage error.\n",
     cmd_spec, /*selects_chip=*/false, /*allow_positionals=*/true},
    {"version", "print build provenance (git, compiler, build type)", kNoOptions,
     "", cmd_version},
};

const CommandSpec* find_command(const std::string& name) {
  for (const CommandSpec& spec : kCommands) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::string command_usage(const CommandSpec& spec) {
  std::string text = "usage: tfcool ";
  text += spec.name;
  text += " [options]\n\n";
  text += spec.summary;
  text += "\n\noptions:\n";
  text += spec.option_help;
  if (spec.selects_chip) text += kChipOptionHelp;
  text +=
      "\nglobal options (any command): --threads N, --log-level L,\n"
      "--log-json PATH, --trace-out PATH, --metrics-out PATH,\n"
      "--profile-out PATH\n";
  return text;
}

bool option_allowed(const CommandSpec& spec, const std::string& key) {
  for (const char* const* opt = kGlobalOptions; *opt; ++opt) {
    if (key == *opt) return true;
  }
  for (const char* const* opt = spec.options; *opt; ++opt) {
    if (key == *opt) return true;
  }
  if (spec.selects_chip) {
    for (const char* const* opt = kChipOptions; *opt; ++opt) {
      if (key == *opt) return true;
    }
  }
  return false;
}

}  // namespace

std::string usage() {
  std::string text =
      "usage: tfcool <command> [options]\n"
      "\n"
      "commands:\n";
  for (const CommandSpec& spec : kCommands) {
    const std::string name = spec.name;
    text += "  " + name;
    text.append(name.size() < 12 ? 12 - name.size() : 2, ' ');
    text += spec.summary;
    text += "\n";
  }
  text +=
      "\n"
      "`tfcool <command> --help` prints the command's own options.\n"
      "\n"
      "execution (any command):\n"
      "  --threads N             worker threads for parallel sections\n"
      "                          (default: TFCOOL_THREADS env, else hardware;\n"
      "                          results are identical for any N)\n"
      "\n"
      "observability (any command):\n"
      "  --log-level L           trace|debug|info|warn|error|off (default warn)\n"
      "  --log-json PATH         append structured JSONL log records to PATH\n"
      "  --trace-out PATH        write Chrome trace_event JSON (open in\n"
      "                          Perfetto / about://tracing)\n"
      "  --metrics-out PATH      write the metrics-registry snapshot as JSON\n"
      "  --profile-out PATH      run under the continuous profiler and write\n"
      "                          a collapsed-stack profile (flamegraph.pl\n"
      "                          input) to PATH\n";
  return text;
}

int run_cli(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  auto parsed = parse(args, err);
  if (!parsed) {
    const CommandSpec* spec = args.empty() ? nullptr : find_command(args[0]);
    err << (spec != nullptr ? command_usage(*spec) : usage());
    return 2;
  }
  if (parsed->command == "--help" || parsed->command == "help") {
    out << usage();
    return 0;
  }

  const CommandSpec* spec = find_command(parsed->command);
  if (!spec) {
    err << "error: unknown command '" << parsed->command << "'\n" << usage();
    return 2;
  }
  if (parsed->options.count("--help") != 0) {
    out << command_usage(*spec);
    return 0;
  }
  if (!parsed->positionals.empty() && !spec->allow_positionals) {
    err << "error: unexpected argument '" << parsed->positionals[0] << "'\n"
        << command_usage(*spec);
    return 2;
  }
  for (const auto& [key, value] : parsed->options) {
    if (!option_allowed(*spec, key)) {
      err << "error: unknown option '" << key << "' for command '" << spec->name
          << "'\n"
          << command_usage(*spec);
      return 2;
    }
  }

  ObsScope obs_scope;
  int code;
  try {
    if (parsed->options.count("--threads") != 0) {
      par::ThreadPool::set_global_threads(parse_size(*parsed, "--threads", 0));
    }
    if (!obs_scope.configure(*parsed, err)) return 2;
    code = spec->handler(*parsed, out, err);
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 2;
  }
  if (!obs_scope.finish(out, err) && code == 0) code = 2;
  return code;
}

}  // namespace tfc::cli
