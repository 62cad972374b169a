/// On-demand TEC control on sim::ScenarioEngine: the hysteresis switch is a
/// core::DtmController policy (min_scale 1, current_levels {0, I_on}) driven
/// every step over a caller-built per-unit activity trace. Also pins the
/// caller-trace input checks of the engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "engine/solve_context.h"
#include "sim/scenario.h"

namespace tfc::sim {
namespace {

tec::TecDeviceParams dev() { return tec::TecDeviceParams::chowdhury_superlattice(); }

/// 4x4 chip: a 0.55 W hot spot on tile (1, 1) in a background of 0.08 W per
/// tile.
floorplan::Floorplan small_chip() {
  std::vector<floorplan::FunctionalUnit> units = {
      {"HOT", {{1, 1, 1, 1}}, 0.55},
      {"BG", {{0, 0, 1, 4}, {1, 0, 1, 1}, {1, 2, 1, 2}, {2, 0, 2, 4}}, 15 * 0.08},
  };
  floorplan::Floorplan plan(4, 4, std::move(units));
  plan.validate();
  return plan;
}

/// TECs on tiles (1, 1) and (1, 2), the worst-case map installed.
engine::SolveContext make_context(const floorplan::Floorplan& plan) {
  thermal::PackageGeometry g;
  g.tile_rows = g.tile_cols = 4;
  g.die_width = g.die_height = 2e-3;
  TileMask dep(4, 4);
  dep.set(1, 1);
  dep.set(1, 2);
  return engine::SolveContext(
      std::make_shared<const thermal::StackSpec>(thermal::StackSpec::single_die(g)), dep,
      plan.tile_powers(), dev());
}

/// \p steps ticks: every unit at its worst case where \p hot_at holds, a
/// uniform 0.02 W per tile elsewhere.
power::ActivityTrace trace_of(std::size_t steps,
                              const std::function<bool(std::size_t)>& hot_at) {
  power::ActivityTrace trace{"on_demand", {{}, {}}};
  for (std::size_t s = 0; s < steps; ++s) {
    const bool hot = hot_at(s);
    trace.utilization[0].push_back(hot ? 1.0 : 0.02 / 0.55);
    trace.utilization[1].push_back(hot ? 1.0 : 0.02 / 0.08);
  }
  return trace;
}

/// Hysteresis switch: on at \p i_on above \p theta_on, off below
/// \p theta_off, one decision and one frame per step.
ScenarioOptions hysteresis(double i_on, double theta_on, double theta_off,
                           std::size_t steps) {
  ScenarioOptions o;
  o.dt = 2e-3;
  o.steps = steps;
  o.control_every = 1;
  o.frame_every = 1;
  o.policy.theta_limit = theta_on;
  o.policy.guard_band = theta_on - theta_off;
  o.policy.min_scale = 1.0;
  o.policy.current_levels = {0.0, i_on};
  return o;
}

ScenarioOptions around(double steady_peak_k, std::size_t steps = 800) {
  return hysteresis(4.0, steady_peak_k - 1.0, steady_peak_k - 3.0, steps);
}

struct OnDemandRun {
  ScenarioSummary summary;
  std::vector<Frame> frames;

  /// Steps whose TEC state differs from the previous step's.
  std::size_t switches() const {
    std::size_t n = 0;
    for (std::size_t s = 1; s < frames.size(); ++s) {
      n += (frames[s].current_a > 0.0) != (frames[s - 1].current_a > 0.0);
    }
    return n;
  }
};

OnDemandRun run(const floorplan::Floorplan& plan, const engine::SolveContext& context,
                power::ActivityTrace trace, const ScenarioOptions& options) {
  ScenarioEngine engine(plan, context, std::move(trace), options);
  OnDemandRun r;
  r.summary = engine.run([&](const Frame& f) {
    r.frames.push_back(f);
    return true;
  });
  return r;
}

double steady_peak(const engine::SolveContext& context) {
  return context.system().solve(0.0)->peak_tile_temperature;
}

TEST(OnDemand, NeverActivatesWhenCool) {
  const auto plan = small_chip();
  const auto context = make_context(plan);
  const auto o =
      hysteresis(5.0, thermal::to_kelvin(200.0), thermal::to_kelvin(150.0), 100);
  const auto r = run(plan, context, trace_of(100, [](std::size_t) { return false; }), o);
  EXPECT_DOUBLE_EQ(r.summary.duty_cycle, 0.0);
  EXPECT_DOUBLE_EQ(r.summary.tec_energy_j, 0.0);
  EXPECT_EQ(r.switches(), 0u);
  EXPECT_EQ(r.summary.current_up_actions, 0u);
}

TEST(OnDemand, HoldsPeakNearThresholdUnderConstantLoad) {
  const auto plan = small_chip();
  const auto context = make_context(plan);
  const double uncontrolled = steady_peak(context);
  const auto o = around(uncontrolled);
  const auto r = run(plan, context, trace_of(800, [](std::size_t) { return true; }), o);
  EXPECT_GT(r.summary.duty_cycle, 0.0);
  // The controller caps the excursion near θ_on (die time constants are
  // milliseconds, so overshoot is small) ...
  EXPECT_LT(r.summary.max_peak_k, o.policy.theta_limit + 1.0);
  // ... and genuinely cools below the uncontrolled steady state.
  EXPECT_LT(r.frames.back().peak_k, uncontrolled);
  // Throttling is off: every unit keeps its full activity.
  EXPECT_EQ(r.summary.throttle_actions, 0u);
  EXPECT_DOUBLE_EQ(r.summary.min_performance, 1.0);
}

TEST(OnDemand, EnergyBelowAlwaysOn) {
  const auto plan = small_chip();
  const auto context = make_context(plan);
  const auto o = around(steady_peak(context));
  const auto r = run(plan, context, trace_of(800, [](std::size_t) { return true; }), o);

  // Always-on upper bound for the same horizon.
  const auto op = context.system().solve(4.0);
  ASSERT_TRUE(op.has_value());
  const double always_on_energy = op->tec_input_power * o.dt * double(o.steps);
  EXPECT_LT(r.summary.tec_energy_j, always_on_energy);
  EXPECT_GT(r.summary.tec_energy_j, 0.0);
}

TEST(OnDemand, BurstWorkloadTogglesController) {
  const auto plan = small_chip();
  const auto context = make_context(plan);
  const auto o = around(steady_peak(context), 1200);
  // Alternate hot bursts and idle phases.
  const auto r =
      run(plan, context, trace_of(1200, [](std::size_t s) { return (s / 300) % 2 == 0; }),
          o);
  EXPECT_GT(r.switches(), 1u);
  EXPECT_GT(r.summary.duty_cycle, 0.0);
  EXPECT_LT(r.summary.duty_cycle, 1.0);
}

TEST(OnDemand, TimelineShapeConsistent) {
  const auto plan = small_chip();
  const auto context = make_context(plan);
  const auto o = around(steady_peak(context), 50);
  const auto r = run(plan, context, trace_of(50, [](std::size_t) { return true; }), o);
  ASSERT_EQ(r.frames.size(), 50u);
  EXPECT_EQ(r.summary.steps, 50u);
  double max_peak = 0.0;
  for (std::size_t s = 0; s < r.frames.size(); ++s) {
    EXPECT_EQ(r.frames[s].step, s);
    max_peak = std::max(max_peak, r.frames[s].peak_k);
  }
  EXPECT_DOUBLE_EQ(r.summary.max_peak_k, max_peak);
}

/// Build and run an on-demand engine with \p o on a constant hot trace; the
/// std::invalid_argument message, or "" when nothing is rejected.
std::string rejection_message(const ScenarioOptions& o) {
  const auto plan = small_chip();
  const auto context = make_context(plan);
  try {
    ScenarioEngine engine(plan, context, trace_of(10, [](std::size_t) { return true; }),
                          o);
    (void)engine.run();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

ScenarioOptions valid_band() {
  return hysteresis(4.0, thermal::to_kelvin(84.0), thermal::to_kelvin(82.0), 10);
}

TEST(OnDemand, RejectsNonPositiveDt) {
  auto o = valid_band();
  o.dt = 0.0;
  EXPECT_NE(rejection_message(o).find("dt must be > 0"), std::string::npos);
  o.dt = -1e-3;
  EXPECT_NE(rejection_message(o).find("dt must be > 0"), std::string::npos);
}

TEST(OnDemand, RejectsZeroSteps) {
  auto o = valid_band();
  o.steps = 0;
  EXPECT_NE(rejection_message(o).find("steps must be nonzero"), std::string::npos);
}

TEST(OnDemand, RejectsInvertedHysteresisBand) {
  // Off threshold above the on threshold: a negative guard band.
  const auto o = hysteresis(4.0, thermal::to_kelvin(80.0), thermal::to_kelvin(85.0), 10);
  EXPECT_NE(rejection_message(o).find("guard_band must be >= 0"), std::string::npos);
  EXPECT_EQ(rejection_message(valid_band()), "");
}

TEST(OnDemand, RejectsNonPositiveOnCurrent) {
  // {0, 0} is not ascending, {0, -1} negative.
  for (double i_on : {0.0, -1.0}) {
    const auto o =
        hysteresis(i_on, thermal::to_kelvin(84.0), thermal::to_kelvin(82.0), 10);
    EXPECT_NE(
        rejection_message(o).find("current_levels must be ascending and non-negative"),
        std::string::npos);
  }
}

// --- Caller-built trace checks ---------------------------------------------

TEST(CallerTrace, NameBecomesBenchmark) {
  const auto plan = small_chip();
  const auto context = make_context(plan);
  ScenarioEngine engine(plan, context, trace_of(10, [](std::size_t) { return true; }));
  EXPECT_EQ(engine.options().benchmark, "on_demand");
}

TEST(CallerTrace, RowsOfDifferentLengthThrow) {
  const auto plan = small_chip();
  const auto context = make_context(plan);
  auto trace = trace_of(10, [](std::size_t) { return true; });
  trace.utilization[1].pop_back();  // build_rhs would read past its end
  EXPECT_THROW(ScenarioEngine(plan, context, trace), std::invalid_argument);
  // A row per unit, no more and no fewer.
  trace = trace_of(10, [](std::size_t) { return true; });
  trace.utilization.pop_back();
  EXPECT_THROW(ScenarioEngine(plan, context, trace), std::invalid_argument);
  // An empty trace has no tick 0.
  trace.utilization.assign(2, {});
  EXPECT_THROW(ScenarioEngine(plan, context, trace), std::invalid_argument);
}

TEST(CallerTrace, NegativeUtilizationThrows) {
  const auto plan = small_chip();
  const auto context = make_context(plan);
  auto trace = trace_of(10, [](std::size_t) { return true; });
  trace.utilization[0][3] = -0.1;
  EXPECT_THROW(ScenarioEngine(plan, context, trace), std::invalid_argument);
}

TEST(CallerTrace, NonFiniteUtilizationThrows) {
  const auto plan = small_chip();
  const auto context = make_context(plan);
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    auto trace = trace_of(10, [](std::size_t) { return true; });
    trace.utilization[1][7] = bad;
    EXPECT_THROW(ScenarioEngine(plan, context, trace), std::invalid_argument);
  }
}

}  // namespace
}  // namespace tfc::sim
