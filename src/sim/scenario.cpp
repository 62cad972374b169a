#include "sim/scenario.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/context.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tfc::sim {

namespace {

void validate_options(const floorplan::Floorplan& plan,
                      const thermal::PackageModel& model, const ScenarioOptions& o) {
  if (plan.tile_rows() != model.tile_rows() || plan.tile_cols() != model.tile_cols()) {
    throw std::invalid_argument("ScenarioEngine: floorplan/package grid mismatch");
  }
  if (!(o.dt > 0.0)) throw std::invalid_argument("ScenarioEngine: dt must be > 0");
  if (o.steps == 0) throw std::invalid_argument("ScenarioEngine: steps must be nonzero");
  if (o.control_every == 0 || o.frame_every == 0) {
    throw std::invalid_argument(
        "ScenarioEngine: control_every/frame_every must be nonzero");
  }
  for (const auto& ev : o.schedule) {
    if (ev.current_a < 0.0) {
      throw std::invalid_argument("ScenarioEngine: scheduled current must be >= 0");
    }
  }
}

/// build_rhs reads utilization[u][tick] for every unit u and tick below the
/// trace length, so every row must be that long.
void validate_trace(const floorplan::Floorplan& plan, const power::ActivityTrace& trace) {
  if (trace.unit_count() != plan.units().size() || trace.length() == 0) {
    throw std::invalid_argument("ScenarioEngine: bad workload trace");
  }
  for (const auto& row : trace.utilization) {
    if (row.size() != trace.length()) {
      throw std::invalid_argument("ScenarioEngine: trace rows differ in length");
    }
    for (double u : row) {
      if (!std::isfinite(u) || u < 0.0) {
        throw std::invalid_argument(
            "ScenarioEngine: trace utilization must be finite and >= 0");
      }
    }
  }
}

}  // namespace

ScenarioEngine::ScenarioEngine(const floorplan::Floorplan& plan,
                               const engine::SolveContext& context,
                               ScenarioOptions options)
    : ScenarioEngine(plan, context.system(), std::nullopt, std::move(options)) {}

ScenarioEngine::ScenarioEngine(const floorplan::Floorplan& plan,
                               const engine::SolveContext& context,
                               power::ActivityTrace trace, ScenarioOptions options)
    : ScenarioEngine(plan, context.system(), std::move(trace), std::move(options)) {}

ScenarioEngine::ScenarioEngine(const floorplan::Floorplan& plan,
                               tec::ElectroThermalSystem system,
                               std::optional<power::ActivityTrace> trace,
                               ScenarioOptions options)
    : plan_(&plan), options_(std::move(options)), system_(std::move(system)) {
  validate_options(plan, system_.model(), options_);
  // Later schedule entries override earlier ones at the same step.
  std::stable_sort(options_.schedule.begin(), options_.schedule.end(),
                   [](const CurrentEvent& a, const CurrentEvent& b) {
                     return a.step < b.step;
                   });

  if (trace) {
    options_.benchmark = trace->benchmark;
    trace_ = std::move(*trace);
  } else {
    trace_ = power::WorkloadSynthesizer(plan, options_.workload)
                 .synthesize(options_.benchmark);
  }
  validate_trace(plan, trace_);

  unit_scale_scratch_.assign(plan.units().size(), 0.0);
  tile_power_scratch_ = linalg::Vector(plan.tile_count());
  rhs_scratch_ = linalg::Vector(system_.node_count());
}

double ScenarioEngine::scheduled_current(std::size_t step) const {
  double current = 0.0;
  for (const auto& ev : options_.schedule) {
    if (ev.step > step) break;
    current = ev.current_a;
  }
  return current;
}

thermal::TransientSolver& ScenarioEngine::solver_for(double current) {
  auto it = solvers_.find(current);
  if (it != solvers_.end()) return it->second;
  // G − i·D + C/dt has G's pattern, which the system has already analyzed
  // (and caches for its copies): every level borrows that analysis and runs
  // only the numeric factorization. The borrow holds no ownership; system_
  // outlives solvers_.
  std::shared_ptr<const linalg::SparseCholeskySymbolic> symbolic(
      std::shared_ptr<const void>(), &system_.cholesky_symbolic());
  it = solvers_
           .try_emplace(current, system_.system_matrix(current),
                        system_.model().network().capacitance_vector(), options_.dt,
                        std::move(symbolic))
           .first;
  return it->second;
}

void ScenarioEngine::build_rhs(std::size_t step, const std::vector<double>& scales,
                               double current) {
  TFC_SPAN("sim.rasterize");
  const std::size_t tick = step % trace_.length();

  for (std::size_t u = 0; u < unit_scale_scratch_.size(); ++u) {
    unit_scale_scratch_[u] = scales[u] * trace_.utilization[u][tick];
  }
  plan_->tile_powers_into(unit_scale_scratch_, tile_power_scratch_);
  system_.rhs_into(current, tile_power_scratch_, rhs_scratch_);
}

ScenarioSummary ScenarioEngine::run(const FrameSink& sink) {
  TFC_SPAN("sim.run");
  TFC_SPAN_ATTR("steps", static_cast<std::uint64_t>(options_.steps));
  TFC_SPAN_ATTR("benchmark", options_.benchmark);
  auto& reg = obs::MetricsRegistry::global();
  reg.counter("sim.runs").increment();
  auto& steps_counter = reg.counter("sim.steps");
  auto& frames_counter = reg.counter("sim.frames");
  auto& violations_counter = reg.counter("sim.violations");
  auto& step_ms = reg.histogram("sim.step_ms");

  const auto& model = system_.model();
  const std::size_t n = model.node_count();

  core::DtmController controller(*plan_, options_.policy);
  const std::vector<double> unthrottled(plan_->units().size(), 1.0);

  // Initial condition: passive steady state under the step-0 map (factored
  // through the system's cached symbolic analysis), or ambient.
  theta_ = linalg::Vector(n, model.ambient());
  if (options_.start_from_steady_state) {
    build_rhs(0, unthrottled, 0.0);
    tec::SolveWorkspace ws;
    if (!system_.factorize_into(0.0, ws)) {
      throw std::runtime_error("ScenarioEngine: passive system not positive definite");
    }
    ws.factor.solve_into(rhs_scratch_, theta_, ws.solve_scratch);
  }
  theta_next_ = linalg::Vector(n);

  ScenarioSummary sum;
  sum.min_performance = 1.0;
  std::vector<core::DtmAction> pending_actions;
  double performance_sum = 0.0;
  std::size_t energized_steps = 0;
  std::size_t executed = 0;
  std::size_t seq = 0;

  for (std::size_t s = 0; s < options_.steps; ++s) {
    TFC_SPAN("sim.step");
    const auto t0 = std::chrono::steady_clock::now();

    if (options_.dtm && s % options_.control_every == 0) {
      TFC_SPAN("sim.control");
      model.tile_temperatures_into(theta_, tiles_scratch_);
      const auto action = controller.decide(tiles_scratch_);
      switch (action.kind) {
        case core::DtmActionKind::kNone: break;
        case core::DtmActionKind::kThrottle: ++sum.throttle_actions; break;
        case core::DtmActionKind::kBoost: ++sum.boost_actions; break;
        case core::DtmActionKind::kCurrentUp: ++sum.current_up_actions; break;
        case core::DtmActionKind::kCurrentDown: ++sum.current_down_actions; break;
      }
      if (action.kind != core::DtmActionKind::kNone) pending_actions.push_back(action);
    }

    double current = scheduled_current(s);
    if (options_.dtm) current = std::max(current, controller.current());
    const auto& scales = options_.dtm ? controller.unit_scales() : unthrottled;

    build_rhs(s, scales, current);
    solver_for(current).step_into(theta_, rhs_scratch_, theta_next_);
    std::swap(theta_, theta_next_);
    ++executed;

    model.tile_temperatures_into(theta_, tiles_scratch_);
    const double peak = linalg::max_entry(tiles_scratch_);
    sum.final_peak_k = peak;
    sum.max_peak_k = std::max(sum.max_peak_k, peak);
    if (peak > options_.policy.theta_limit) {
      ++sum.violation_steps;
      violations_counter.increment();
    }
    if (current > 0.0) {
      ++energized_steps;
      sum.tec_energy_j += system_.tec_input_power(current, theta_) * options_.dt;
    }
    const double performance = options_.dtm ? controller.performance() : 1.0;
    performance_sum += performance;
    sum.min_performance = std::min(sum.min_performance, performance);

    steps_counter.increment();
    step_ms.record(std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count());

    if (s % options_.frame_every == 0 || s + 1 == options_.steps) {
      Frame frame;
      frame.seq = seq++;
      frame.step = s;
      frame.time_s = double(s + 1) * options_.dt;
      frame.peak_k = peak;
      frame.current_a = current;
      frame.performance = performance;
      frame.actions = std::move(pending_actions);
      pending_actions.clear();
      if (options_.include_tiles) frame.tile_k = tiles_scratch_;
      frames_counter.increment();
      ++sum.frames;
      if (sink && !sink(frame)) {
        sum.aborted = true;
        break;
      }
    }
  }

  sum.steps = executed;
  sum.limit_held_at_end = sum.final_peak_k <= options_.policy.theta_limit;
  sum.retained_performance = executed > 0 ? performance_sum / double(executed) : 1.0;
  sum.duty_cycle = executed > 0 ? double(energized_steps) / double(executed) : 0.0;
  sum.distinct_currents = solvers_.size();
  TFC_SPAN_ATTR("frames", static_cast<std::uint64_t>(sum.frames));
  TFC_SPAN_ATTR("max_peak_k", sum.max_peak_k);
  return sum;
}

void SimulateRequest::validate() const {
  if (steps < 1 || steps > 100000) {
    throw std::invalid_argument("'steps' must be an integer in [1, 100000]");
  }
  if (!(dt > 0.0 && dt <= 10.0)) {
    throw std::invalid_argument("'dt' must be in (0, 10] seconds");
  }
  if (frame_every < 1 || control_every < 1) {
    throw std::invalid_argument(
        "'frame_every'/'control_every' must be positive integers");
  }
  if (current && !(std::isfinite(*current) && *current >= 0.0)) {
    throw std::invalid_argument("'current' must be finite and nonnegative");
  }
  if (tec_on && *tec_on > steps) {
    throw std::invalid_argument("tec_on must be at most steps");
  }
  if (tec_off && !tec_on) throw std::invalid_argument("tec_off requires tec_on");
  if (tec_off && !(*tec_off > *tec_on && *tec_off <= steps)) {
    throw std::invalid_argument("tec_off must be in (tec_on, steps]");
  }
}

double SimulateRequest::supply(const core::Session& session) const {
  return current.value_or(session.design.current);
}

ScenarioOptions SimulateRequest::options(const core::Session& session) const {
  validate();
  ScenarioOptions o;
  o.benchmark = benchmark;
  o.dt = dt;
  o.steps = steps;
  o.frame_every = frame_every;
  o.control_every = control_every;
  o.dtm = dtm;
  o.include_tiles = tiles;
  o.start_from_steady_state = !cold_start;
  o.policy.theta_limit = thermal::to_kelvin(session.theta_limit_celsius);
  const double i = supply(session);
  if (session.design.tec_count > 0 && i > 0.0) {
    if (dtm) o.policy.current_levels = {0.0, 0.5 * i, i};
    if (tec_on || !dtm) o.schedule.push_back({tec_on.value_or(0), i});
    if (tec_off) o.schedule.push_back({*tec_off, 0.0});
  }
  return o;
}

ScenarioSummary simulate(const core::Session& session, const SimulateRequest& request,
                         const FrameSink& sink) {
  ScenarioEngine engine(*session.chip.plan, *session.context, request.options(session));
  return engine.run(sink);
}

io::JsonValue frame_to_json(const Frame& frame, const floorplan::Floorplan& plan) {
  auto j = io::JsonValue::make_object();
  j.set("seq", io::JsonValue::make_number(double(frame.seq)));
  j.set("step", io::JsonValue::make_number(double(frame.step)));
  j.set("t_s", io::JsonValue::make_number(frame.time_s));
  j.set("peak_k", io::JsonValue::make_number(frame.peak_k));
  j.set("peak_c", io::JsonValue::make_number(thermal::to_celsius(frame.peak_k)));
  j.set("current_a", io::JsonValue::make_number(frame.current_a));
  j.set("performance", io::JsonValue::make_number(frame.performance));
  auto actions = io::JsonValue::make_array();
  for (const auto& a : frame.actions) {
    auto ja = io::JsonValue::make_object();
    ja.set("kind", io::JsonValue::make_string(core::dtm_action_name(a.kind)));
    if (a.kind == core::DtmActionKind::kThrottle ||
        a.kind == core::DtmActionKind::kBoost) {
      ja.set("unit", io::JsonValue::make_string(plan.units()[a.unit].name));
      ja.set("scale", io::JsonValue::make_number(a.scale));
    }
    ja.set("current_a", io::JsonValue::make_number(a.current_a));
    actions.push_back(std::move(ja));
  }
  j.set("actions", std::move(actions));
  if (frame.tile_k.size() > 0) {
    auto tiles = io::JsonValue::make_array();
    for (std::size_t t = 0; t < frame.tile_k.size(); ++t) {
      tiles.push_back(io::JsonValue::make_number(frame.tile_k[t]));
    }
    j.set("tiles_k", std::move(tiles));
  }
  return j;
}

io::JsonValue summary_to_json(const ScenarioSummary& summary) {
  auto j = io::JsonValue::make_object();
  j.set("steps", io::JsonValue::make_number(double(summary.steps)));
  j.set("frames", io::JsonValue::make_number(double(summary.frames)));
  j.set("max_peak_k", io::JsonValue::make_number(summary.max_peak_k));
  j.set("max_peak_c", io::JsonValue::make_number(thermal::to_celsius(summary.max_peak_k)));
  j.set("final_peak_k", io::JsonValue::make_number(summary.final_peak_k));
  j.set("violation_steps", io::JsonValue::make_number(double(summary.violation_steps)));
  j.set("limit_held_at_end", io::JsonValue::make_bool(summary.limit_held_at_end));
  j.set("retained_performance",
        io::JsonValue::make_number(summary.retained_performance));
  j.set("min_performance", io::JsonValue::make_number(summary.min_performance));
  j.set("tec_energy_j", io::JsonValue::make_number(summary.tec_energy_j));
  j.set("duty_cycle", io::JsonValue::make_number(summary.duty_cycle));
  j.set("throttle_actions", io::JsonValue::make_number(double(summary.throttle_actions)));
  j.set("boost_actions", io::JsonValue::make_number(double(summary.boost_actions)));
  j.set("current_up_actions",
        io::JsonValue::make_number(double(summary.current_up_actions)));
  j.set("current_down_actions",
        io::JsonValue::make_number(double(summary.current_down_actions)));
  j.set("distinct_currents",
        io::JsonValue::make_number(double(summary.distinct_currents)));
  j.set("aborted", io::JsonValue::make_bool(summary.aborted));
  return j;
}

}  // namespace tfc::sim
