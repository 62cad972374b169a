/// ScenarioEngine on a declarative StackSpec: it must integrate a stacked
/// package on the virtual tile grid, rasterize per-die workloads through the
/// combined floorplan, and stay byte-deterministic across thread counts.
#include "sim/scenario.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "engine/solve_context.h"
#include "par/thread_pool.h"
#include "thermal/stack_spec.h"

namespace tfc::sim {
namespace {

tec::TecDeviceParams dev() { return tec::TecDeviceParams::chowdhury_superlattice(); }

/// One chip, two stacked 4x4 dies, both interfaces TEC-capable.
std::shared_ptr<const thermal::StackSpec> stacked_spec() {
  auto make_die = [](const std::string& name, double power) {
    thermal::LayerSpec l;
    l.kind = thermal::LayerSpec::Kind::kDie;
    l.name = name;
    l.material = thermal::silicon();
    l.thickness = 0.3e-3;
    l.power_w = power;
    return l;
  };
  auto make_iface = [](const std::string& name) {
    thermal::LayerSpec l;
    l.kind = thermal::LayerSpec::Kind::kInterface;
    l.name = name;
    l.material = thermal::thermal_interface();
    l.thickness = 50e-6;
    l.tec_capable = true;
    return l;
  };
  thermal::StackSpec s;
  s.name = "sim-stacked";
  thermal::ChipSpec c;
  c.name = "cpu";
  c.width = 6e-3;
  c.height = 6e-3;
  c.tile_rows = 4;
  c.tile_cols = 4;
  c.layers = {make_die("core", 12.0), make_iface("bond"), make_die("cache", 4.0),
              make_iface("tim_top")};
  s.chips = {c};
  s.validate();
  return std::make_shared<const thermal::StackSpec>(std::move(s));
}

/// The solve engine a ScenarioEngine integrates over: \p spec with
/// \p deployment and \p plan's tile powers.
engine::SolveContext context_of(std::shared_ptr<const thermal::StackSpec> spec,
                                const floorplan::Floorplan& plan,
                                const TileMask& deployment) {
  return engine::SolveContext(std::move(spec), deployment, plan.tile_powers(), dev());
}

ScenarioOptions short_run(std::size_t steps) {
  ScenarioOptions o;
  o.workload.timesteps = 1;
  o.workload.phases = 1;
  o.dtm = false;
  o.steps = steps;
  o.dt = 1e-3;
  o.frame_every = steps;
  o.include_tiles = true;
  o.start_from_steady_state = false;
  return o;
}

TEST(SpecScenario, NullSpecThrows) {
  const floorplan::Floorplan plan = stacked_spec()->combined_floorplan();
  EXPECT_THROW(ScenarioEngine(plan,
                              context_of(std::shared_ptr<const thermal::StackSpec>(),
                                         plan, TileMask()),
                              ScenarioOptions{}),
               std::invalid_argument);
}

TEST(SpecScenario, RunsOnVirtualGridAndHeatsUp) {
  auto spec = stacked_spec();
  const floorplan::Floorplan plan = spec->combined_floorplan();
  ScenarioEngine engine(plan, context_of(spec, plan, TileMask()), short_run(50));
  std::vector<Frame> frames;
  ScenarioSummary summary = engine.run([&](const Frame& f) {
    frames.push_back(f);
    return true;
  });
  ASSERT_FALSE(frames.empty());
  // Tile vectors address the 8x4 virtual grid (two stacked 4x4 dies).
  EXPECT_EQ(frames.back().tile_k.size(), spec->tile_count());
  EXPECT_GT(summary.max_peak_k, spec->ambient);
  EXPECT_FALSE(summary.aborted);
}

TEST(SpecScenario, SupplyCurrentLowersTransientPeak) {
  auto spec = stacked_spec();
  const floorplan::Floorplan plan = spec->combined_floorplan();
  TileMask deployment(spec->total_tile_rows(), spec->tile_cols());
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) deployment.set(r, c);
  }
  auto peak_at = [&](double amps) {
    ScenarioOptions o = short_run(120);
    if (amps > 0.0) o.schedule.push_back({0, amps});
    ScenarioEngine engine(plan, context_of(spec, plan, deployment), o);
    return engine.run(nullptr).final_peak_k;
  };

  // Unpowered TECs only add interfacial resistance: hotter than passive.
  ScenarioEngine base(plan, context_of(spec, plan, TileMask()), short_run(120));
  const double passive = base.run(nullptr).final_peak_k;
  const double idle = peak_at(0.0);
  EXPECT_GT(idle, passive);

  // Peltier pumping kicks in with supply current: monotone improvement.
  const double low = peak_at(1.0);
  const double high = peak_at(3.0);
  EXPECT_LT(low, idle);
  EXPECT_LT(high, low);
}

TEST(SpecScenario, ByteIdenticalAcrossThreadCounts) {
  auto spec = stacked_spec();
  const floorplan::Floorplan plan = spec->combined_floorplan();
  auto render = [&]() {
    ScenarioEngine engine(plan, context_of(spec, plan, TileMask()), short_run(30));
    std::ostringstream out;
    ScenarioSummary summary = engine.run([&](const Frame& f) {
      out << frame_to_json(f, plan).dump() << "\n";
      return true;
    });
    out << summary_to_json(summary).dump() << "\n";
    return out.str();
  };
  par::ThreadPool::set_global_threads(1);
  const std::string t1 = render();
  par::ThreadPool::set_global_threads(8);
  const std::string t8 = render();
  par::ThreadPool::set_global_threads(0);
  EXPECT_EQ(t1, t8);
}

}  // namespace
}  // namespace tfc::sim
