#include "sim/scenario.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "obs/context.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "thermal/steady_state.h"

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

}  // namespace

ScenarioEngine::ScenarioEngine(const floorplan::Floorplan& plan,
                               std::shared_ptr<const thermal::StackSpec> spec,
                               const tec::TecDeviceParams& device,
                               const TileMask& deployment, ScenarioOptions options)
    : ScenarioEngine(plan,
                     tec::ElectroThermalSystem::assemble(std::move(spec), deployment,
                                                         plan.tile_powers(), device),
                     std::move(options)) {}

ScenarioEngine::ScenarioEngine(const floorplan::Floorplan& plan,
                               const engine::SolveContext& context,
                               ScenarioOptions options)
    : ScenarioEngine(plan, context.system(), std::move(options)) {}

ScenarioEngine::ScenarioEngine(const floorplan::Floorplan& plan,
                               tec::ElectroThermalSystem system, ScenarioOptions options)
    : plan_(&plan), options_(std::move(options)), system_(std::move(system)) {
  validate_options(plan, system_.model(), options_);
  // Later schedule entries override earlier ones at the same step.
  std::stable_sort(options_.schedule.begin(), options_.schedule.end(),
                   [](const CurrentEvent& a, const CurrentEvent& b) {
                     return a.step < b.step;
                   });

  trace_ = power::WorkloadSynthesizer(plan, options_.workload)
               .synthesize(options_.benchmark);
  if (trace_.unit_count() != plan.units().size() || trace_.length() == 0) {
    throw std::invalid_argument("ScenarioEngine: bad workload trace");
  }

  const auto& model = system_.model();
  const std::size_t cols = plan.tile_cols();
  unit_tiles_.resize(plan.units().size());
  for (std::size_t u = 0; u < plan.units().size(); ++u) {
    for (const auto& r : plan.units()[u].rects) {
      for (std::size_t rr = r.row; rr < r.row + r.rows; ++rr) {
        for (std::size_t cc = r.col; cc < r.col + r.cols; ++cc) {
          unit_tiles_[u].push_back(rr * cols + cc);
        }
      }
    }
  }
  tile_nodes_.resize(plan.tile_count());
  for (std::size_t t = 0; t < plan.tile_count(); ++t) {
    tile_nodes_[t] = model.silicon_node({t / cols, t % cols});
  }
  const auto& net = model.network();
  ambient_rhs_ = linalg::Vector(model.node_count());
  for (std::size_t k = 0; k < model.node_count(); ++k) {
    const double g = net.ambient_conductance(k);
    if (g > 0.0) ambient_rhs_[k] = g * model.ambient();
  }
  tile_power_scratch_ = linalg::Vector(plan.tile_count());
  rhs_scratch_ = linalg::Vector(model.node_count());
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
  // Every pencil G − i·D shares G's pattern: hand the first solver's
  // symbolic analysis to every later level (numeric-only factorization).
  std::shared_ptr<const linalg::SparseCholeskySymbolic> symbolic;
  if (!solvers_.empty()) symbolic = solvers_.begin()->second.symbolic();
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
  const auto& model = system_.model();
  const std::size_t tick = step % trace_.length();

  tile_power_scratch_.fill(0.0);
  for (std::size_t u = 0; u < unit_tiles_.size(); ++u) {
    const auto& unit = plan_->units()[u];
    if (unit_tiles_[u].empty()) continue;
    const double per_tile = scales[u] * trace_.utilization[u][tick] * unit.peak_power /
                            double(unit_tiles_[u].size());
    for (std::size_t t : unit_tiles_[u]) tile_power_scratch_[t] += per_tile;
  }

  rhs_scratch_ = ambient_rhs_;
  for (std::size_t t = 0; t < tile_nodes_.size(); ++t) {
    rhs_scratch_[tile_nodes_[t]] += tile_power_scratch_[t];
  }
  if (current > 0.0) {
    const double joule = 0.5 * system_.device().resistance * current * current;
    for (std::size_t hot : model.hot_nodes()) rhs_scratch_[hot] += joule;
    for (std::size_t cold : model.cold_nodes()) rhs_scratch_[cold] += joule;
  }
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

  // Initial condition: passive steady state under the step-0 map, or ambient.
  theta_ = linalg::Vector(n, model.ambient());
  if (options_.start_from_steady_state) {
    build_rhs(0, unthrottled, 0.0);
    theta_ = thermal::solve_steady_state(system_.system_matrix(0.0), rhs_scratch_);
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

    const double peak = model.peak_tile_temperature(theta_);
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
      if (options_.include_tiles) {
        model.tile_temperatures_into(theta_, tiles_scratch_);
        frame.tile_k = tiles_scratch_;
      }
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
