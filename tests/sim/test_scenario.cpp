/// Tests of tfc::sim::ScenarioEngine: transient→steady convergence against
/// the engine::SolveContext steady solve (the paper's Table-1 chip), frame
/// cadence and seq numbering, sink-driven abort, TEC scheduling, closed-loop
/// DTM behavior, and byte-identical determinism across thread counts.
#include "sim/scenario.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/solve_context.h"
#include "floorplan/alpha21364.h"
#include "par/thread_pool.h"

namespace tfc::sim {
namespace {

tec::TecDeviceParams dev() { return tec::TecDeviceParams::chowdhury_superlattice(); }

std::shared_ptr<const thermal::StackSpec> spec_of(const thermal::PackageGeometry& g) {
  return std::make_shared<const thermal::StackSpec>(thermal::StackSpec::single_die(g));
}

/// The solve engine a ScenarioEngine integrates over: \p spec with
/// \p deployment and the alpha chip's tile powers.
engine::SolveContext context_of(std::shared_ptr<const thermal::StackSpec> spec,
                                const TileMask& deployment) {
  return engine::SolveContext(std::move(spec), deployment,
                              floorplan::alpha21364().tile_powers(), dev());
}

/// Central 2x2 deployment on the alpha chip's 12x12 grid.
TileMask center_deployment() {
  TileMask m(12, 12);
  for (std::size_t r = 5; r <= 6; ++r) {
    for (std::size_t c = 5; c <= 6; ++c) m.set(r, c);
  }
  return m;
}

/// Options for a constant-power open-loop run: a length-1 workload trace
/// (guarantee_worst_case pins utilization to exactly 1.0), controller off.
ScenarioOptions constant_power_options(std::size_t steps, double dt) {
  ScenarioOptions o;
  o.workload.timesteps = 1;
  o.workload.phases = 1;
  o.dtm = false;
  o.steps = steps;
  o.dt = dt;
  o.frame_every = steps;  // frame at step 0 and the final step only
  o.include_tiles = true;
  o.start_from_steady_state = false;  // cold start exercises the full transient
  return o;
}

/// Max relative per-tile deviation of the run's final frame from \p reference.
double max_rel_tile_error(const Frame& last, const linalg::Vector& reference) {
  EXPECT_EQ(last.tile_k.size(), reference.size());
  double worst = 0.0;
  for (std::size_t t = 0; t < reference.size(); ++t) {
    worst = std::max(worst, std::abs(last.tile_k[t] - reference[t]) /
                                std::abs(reference[t]));
  }
  return worst;
}

TEST(Scenario, TransientConvergesToSteadyStateWithoutTec) {
  const auto plan = floorplan::alpha21364();
  const thermal::PackageGeometry geometry;
  // Backward Euler's fixed point is the exact steady state for any dt, so a
  // large step reaches it quickly even past the heat sink's long time
  // constant (each mode decays by 1/(1 + dt/tau) per step).
  ScenarioEngine engine(plan, context_of(spec_of(geometry), center_deployment()),
                        constant_power_options(300, 50.0));

  Frame last;
  auto summary = engine.run([&](const Frame& f) {
    last = f;
    return true;
  });
  ASSERT_GT(summary.frames, 0u);

  // The same assembled system, solved directly for the steady state. The
  // length-1 trace holds every unit at utilization 1.0, so the transient's
  // power map is exactly plan.tile_powers().
  const engine::SolveContext context(geometry, center_deployment(),
                                     plan.tile_powers(), dev());
  auto op = context.solve(0.0);
  ASSERT_TRUE(op.has_value());
  EXPECT_LE(max_rel_tile_error(last, op->tile_temperatures), 1e-8);
  EXPECT_NEAR(summary.final_peak_k, op->peak_tile_temperature,
              1e-8 * op->peak_tile_temperature);
  EXPECT_DOUBLE_EQ(summary.duty_cycle, 0.0);
  EXPECT_DOUBLE_EQ(summary.tec_energy_j, 0.0);
}

TEST(Scenario, TransientConvergesToSteadyStateWithEnergizedTec) {
  const auto plan = floorplan::alpha21364();
  const thermal::PackageGeometry geometry;
  const double current = 1.5;
  auto opts = constant_power_options(300, 50.0);
  opts.schedule.push_back({0, current});
  ScenarioEngine engine(plan, context_of(spec_of(geometry), center_deployment()),
                        opts);

  Frame last;
  auto summary = engine.run([&](const Frame& f) {
    last = f;
    return true;
  });

  const engine::SolveContext context(geometry, center_deployment(),
                                     plan.tile_powers(), dev());
  auto op = context.solve(current);
  ASSERT_TRUE(op.has_value());
  EXPECT_LE(max_rel_tile_error(last, op->tile_temperatures), 1e-8);
  EXPECT_DOUBLE_EQ(summary.duty_cycle, 1.0);
  EXPECT_GT(summary.tec_energy_j, 0.0);
  // Energy integrates the steady input power over the energized interval.
  EXPECT_NEAR(summary.tec_energy_j,
              op->tec_input_power * double(summary.steps) * 50.0,
              0.05 * summary.tec_energy_j);
}

TEST(Scenario, FrameCadenceAndSeqNumbering) {
  const auto plan = floorplan::alpha21364();
  ScenarioOptions o;
  o.steps = 47;
  o.frame_every = 10;
  o.dt = 1e-3;
  ScenarioEngine engine(plan, context_of(thermal::paper_package(), TileMask(12, 12)), o);

  std::vector<Frame> frames;
  auto summary = engine.run([&](const Frame& f) {
    frames.push_back(f);
    return true;
  });

  // Steps 0, 10, 20, 30, 40, and the final step 46.
  ASSERT_EQ(frames.size(), 6u);
  EXPECT_EQ(summary.frames, frames.size());
  const std::size_t expected_steps[] = {0, 10, 20, 30, 40, 46};
  for (std::size_t k = 0; k < frames.size(); ++k) {
    EXPECT_EQ(frames[k].seq, k);
    EXPECT_EQ(frames[k].step, expected_steps[k]);
    EXPECT_DOUBLE_EQ(frames[k].time_s, double(expected_steps[k] + 1) * o.dt);
  }
  EXPECT_FALSE(summary.aborted);
  EXPECT_EQ(summary.steps, o.steps);
}

TEST(Scenario, SinkAbortStopsTheRun) {
  const auto plan = floorplan::alpha21364();
  ScenarioOptions o;
  o.steps = 100;
  o.frame_every = 5;
  ScenarioEngine engine(plan, context_of(thermal::paper_package(), TileMask(12, 12)), o);

  std::size_t delivered = 0;
  auto summary = engine.run([&](const Frame&) { return ++delivered < 3; });
  EXPECT_TRUE(summary.aborted);
  EXPECT_EQ(delivered, 3u);
  EXPECT_EQ(summary.frames, 3u);
  EXPECT_LT(summary.steps, o.steps);
}

TEST(Scenario, ScheduleSwitchesTecOnAndOff) {
  const auto plan = floorplan::alpha21364();
  auto o = constant_power_options(40, 1e-3);
  o.frame_every = 1;
  o.schedule = {{10, 2.0}, {30, 0.0}};
  ScenarioEngine engine(plan,
                        context_of(thermal::paper_package(), center_deployment()), o);

  std::vector<Frame> frames;
  auto summary = engine.run([&](const Frame& f) {
    frames.push_back(f);
    return true;
  });
  ASSERT_EQ(frames.size(), 40u);
  for (const auto& f : frames) {
    const double expected = f.step >= 10 && f.step < 30 ? 2.0 : 0.0;
    EXPECT_DOUBLE_EQ(f.current_a, expected) << "step " << f.step;
  }
  // 20 of 40 steps energized; the 0 A and 2 A pencils were both factorized.
  EXPECT_DOUBLE_EQ(summary.duty_cycle, 0.5);
  EXPECT_EQ(summary.distinct_currents, 2u);
}

TEST(Scenario, ClosedLoopHoldsLimitThatOpenLoopViolates) {
  const auto plan = floorplan::alpha21364();
  const double limit_k = thermal::to_kelvin(68.0);

  ScenarioOptions open;
  open.steps = 300;
  open.dtm = false;
  open.policy.theta_limit = limit_k;
  ScenarioEngine open_engine(
      plan, context_of(thermal::paper_package(), center_deployment()), open);
  auto open_summary = open_engine.run();
  ASSERT_GT(open_summary.violation_steps, 0u)
      << "limit must start out violated for the closed-loop test to bite";

  ScenarioOptions closed = open;
  closed.dtm = true;
  closed.policy.current_levels = {0.0, 2.4, 4.8};
  ScenarioEngine closed_engine(
      plan, context_of(thermal::paper_package(), center_deployment()), closed);
  auto closed_summary = closed_engine.run();
  EXPECT_TRUE(closed_summary.limit_held_at_end);
  EXPECT_LT(closed_summary.final_peak_k, open_summary.final_peak_k);
  EXPECT_GT(closed_summary.current_up_actions + closed_summary.throttle_actions, 0u);
}

TEST(Scenario, RunIsRepeatableAndByteIdenticalAcrossThreadCounts) {
  const auto plan = floorplan::alpha21364();
  ScenarioOptions o;
  o.steps = 60;
  o.frame_every = 10;
  o.include_tiles = true;
  o.policy.theta_limit = thermal::to_kelvin(68.0);
  o.policy.current_levels = {0.0, 2.0, 4.0};

  auto render = [&]() {
    ScenarioEngine engine(plan,
                          context_of(thermal::paper_package(), center_deployment()), o);
    std::string text;
    auto summary = engine.run([&](const Frame& f) {
      text += frame_to_json(f, plan).dump();
      text += '\n';
      return true;
    });
    text += summary_to_json(summary).dump();
    return text;
  };

  par::ThreadPool::set_global_threads(1);
  const std::string serial = render();
  par::ThreadPool::set_global_threads(8);
  const std::string parallel = render();
  EXPECT_EQ(serial, parallel);
}

/// A session stub: options() reads only the design and the θ-limit.
core::Session session_with(std::size_t tecs, double current) {
  core::Session session;
  session.design.tec_count = tecs;
  session.design.current = current;
  return session;
}

/// The one schedule rule of both front ends.
TEST(SimulateRequest, ScheduleRule) {
  const core::Session session = session_with(3, 4.0);
  using Schedule = std::vector<std::pair<std::size_t, double>>;
  const auto schedule_of = [](const ScenarioOptions& o) {
    Schedule out;
    for (const CurrentEvent& e : o.schedule) out.emplace_back(e.step, e.current_a);
    return out;
  };

  SimulateRequest dtm;
  ScenarioOptions o = dtm.options(session);
  EXPECT_EQ(o.policy.current_levels, (std::vector<double>{0.0, 2.0, 4.0}));
  EXPECT_TRUE(o.schedule.empty());
  EXPECT_DOUBLE_EQ(o.policy.theta_limit, thermal::to_kelvin(85.0));
  EXPECT_TRUE(o.start_from_steady_state);
  dtm.tec_on = 5;
  dtm.tec_off = 9;
  EXPECT_EQ(schedule_of(dtm.options(session)), (Schedule{{5, 4.0}, {9, 0.0}}));

  SimulateRequest open;
  open.dtm = false;
  open.current = 2.5;
  o = open.options(session);
  EXPECT_TRUE(o.policy.current_levels.empty());
  EXPECT_EQ(schedule_of(o), (Schedule{{0, 2.5}}));
  open.tec_on = 3;
  EXPECT_EQ(schedule_of(open.options(session)), (Schedule{{3, 2.5}}));
  open.tec_off = 7;
  EXPECT_EQ(schedule_of(open.options(session)), (Schedule{{3, 2.5}, {7, 0.0}}));

  // Nothing is scheduled without TECs or without supply.
  for (bool with_dtm : {true, false}) {
    SimulateRequest idle;
    idle.dtm = with_dtm;
    for (const core::Session& s : {session_with(0, 4.0), session_with(3, 0.0)}) {
      o = idle.options(s);
      EXPECT_TRUE(o.schedule.empty());
      EXPECT_TRUE(o.policy.current_levels.empty());
    }
    idle.current = 0.0;
    EXPECT_TRUE(idle.options(session).schedule.empty());
  }
}

TEST(SimulateRequest, ValidateRefusesOutOfRangeFields) {
  const std::vector<std::function<void(SimulateRequest&)>> mutants = {
      [](SimulateRequest& r) { r.steps = 0; },
      [](SimulateRequest& r) { r.steps = 100001; },
      [](SimulateRequest& r) { r.dt = 0.0; },
      [](SimulateRequest& r) { r.dt = 10.5; },
      [](SimulateRequest& r) { r.frame_every = 0; },
      [](SimulateRequest& r) { r.control_every = 0; },
      [](SimulateRequest& r) { r.current = -1.0; },
      [](SimulateRequest& r) { r.current = std::nan(""); },
      [](SimulateRequest& r) { r.tec_on = r.steps + 1; },
      [](SimulateRequest& r) { r.tec_off = 5; },
      [](SimulateRequest& r) { r.tec_on = 5, r.tec_off = 5; },
      [](SimulateRequest& r) { r.tec_on = 5, r.tec_off = r.steps + 1; },
  };
  SimulateRequest ok;
  ok.tec_on = ok.steps;
  EXPECT_NO_THROW(ok.validate());
  for (std::size_t k = 0; k < mutants.size(); ++k) {
    SimulateRequest bad;
    mutants[k](bad);
    EXPECT_THROW(bad.validate(), std::invalid_argument) << "mutant " << k;
  }
}

TEST(Scenario, InvalidOptionsThrow) {
  const auto plan = floorplan::alpha21364();
  const thermal::PackageGeometry geometry;
  auto make = [&](ScenarioOptions o) {
    ScenarioEngine engine(plan, context_of(spec_of(geometry), TileMask(12, 12)), o);
  };
  ScenarioOptions bad_dt;
  bad_dt.dt = 0.0;
  EXPECT_THROW(make(bad_dt), std::invalid_argument);
  ScenarioOptions bad_steps;
  bad_steps.steps = 0;
  EXPECT_THROW(make(bad_steps), std::invalid_argument);
  ScenarioOptions bad_frame;
  bad_frame.frame_every = 0;
  EXPECT_THROW(make(bad_frame), std::invalid_argument);
  ScenarioOptions bad_schedule;
  bad_schedule.schedule = {{0, -1.0}};
  EXPECT_THROW(make(bad_schedule), std::invalid_argument);
  // Grid mismatch between the floorplan and the package geometry.
  thermal::PackageGeometry wrong;
  wrong.tile_rows = wrong.tile_cols = 6;
  const engine::SolveContext wrong_context(spec_of(wrong), TileMask(6, 6),
                                           linalg::Vector(36, 0.0), dev());
  EXPECT_THROW(ScenarioEngine(plan, wrong_context, ScenarioOptions{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace tfc::sim
