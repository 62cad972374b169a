/// \file dtm_scenario.cpp
/// \brief Workload dtm_scenario: one op builds a sim::ScenarioEngine for one
/// of five designed chips and runs one seeded workload trace with the
/// `tfcool simulate` defaults (500 steps of 1 ms, frame and control every 10
/// steps, closed-loop DTM at 85 degC, current levels {0, I/2, I}), sending
/// every frame through sim::frame_to_json(...).dump(). The transient path.

#include <map>

#include "core/cooling_system.h"
#include "engine/solve_context.h"
#include "harness.h"
#include "sim/scenario.h"
#include "thermal/package.h"

namespace perfbench {
namespace {

constexpr std::size_t kChipIds[] = {0, 1, 5, 7, 10};  // alpha, hc1, hc5, hc7, hc10
constexpr std::size_t kChips = sizeof(kChipIds) / sizeof(kChipIds[0]);
constexpr std::size_t kTraces = 8;  // bench00..bench07
constexpr std::size_t kSteps = 500;
constexpr std::size_t kFrameEvery = 10;
// Every frame_every-th step emits a frame, and so does the final step.
constexpr std::size_t kFrames = (kSteps + kFrameEvery - 1) / kFrameEvery + 1;
constexpr double kLimitC = 85.0;
constexpr std::size_t kPlannedOps = 1 << 14;

std::string trace_name(std::size_t t) { return "bench0" + std::to_string(t); }

class DtmScenario final : public Workload {
 public:
  explicit DtmScenario(std::uint64_t seed) : seed_(seed) {}

  const char* name() const override { return "dtm_scenario"; }
  double nominal_ops_per_s() const override { return 34.0; }
  std::size_t op_cycle() const override { return kChips; }

  std::string setup() override {
    chips_.clear();
    power_ms_ = 0.0;
    for (std::size_t id : kChipIds) {
      auto chip = std::make_unique<Chip>(table1_floorplan(id));
      const auto t0 = Clock::now();
      const tfc::linalg::Vector powers = worst_case_powers(chip->plan);
      power_ms_ += ms_since(t0);
      tfc::core::DesignRequest req;
      req.chip_name = table1_chip_name(id);
      req.tile_powers = powers;
      req.theta_limit_celsius = kLimitC;
      req.run_full_cover = false;
      const auto design = tfc::core::design_cooling_system(req);
      if (!design.success || design.tec_count == 0) {
        return table1_chip_name(id) + " does not meet 85 degC with TECs on the first attempt";
      }
      chip->current = design.current;
      chip->context.emplace(tfc::thermal::PackageGeometry{}, design.deployment, powers,
                            req.device);
      chip->fill = factor_fill(chip->context->system());
      chips_.push_back(std::move(chip));
    }
    plan_.clear();
    Rng rng(seed_, 3);
    for (std::size_t k = 0; k < kPlannedOps; ++k) {
      plan_.push_back({rng.below(kChips), rng.below(kTraces)});
    }
    streams_.clear();
    distinct_.clear();
    return op(0).error;  // warm-up scenario
  }

  PhaseResult run(const Budget& budget) override {
    distinct_.clear();
    op_chips_.clear();
    return run_closed_loop(
        name(), budget, [this](std::size_t k) { return op(k); },
        [this](std::size_t k) {
          const Input& in = plan_[k % plan_.size()];
          return "chip=" + table1_chip_name(kChipIds[in.chip]) + " trace=" + trace_name(in.trace);
        });
  }

  void layer_metrics(const TraceWindow&, MetricMap& out) override {
    double distinct = 0.0, nnz = 0.0, fill = 0.0;
    for (std::size_t i = 0; i < distinct_.size(); ++i) {
      distinct += distinct_[i];
      nnz += chips_[op_chips_[i]]->fill.nnz;
      fill += chips_[op_chips_[i]]->fill.ratio;
    }
    const double n = double(std::max<std::size_t>(distinct_.size(), 1));
    out["sim.distinct_currents_per_op"] = distinct / n;
    out["linalg.factor_nnz"] = nnz / n;
    out["linalg.fill_ratio"] = fill / n;
    out["power.worst_case_map.ms"] = power_ms_;
  }

 private:
  struct Chip {
    explicit Chip(tfc::floorplan::Floorplan p) : plan(std::move(p)) {}
    tfc::floorplan::Floorplan plan;
    double current = 0.0;
    std::optional<tfc::engine::SolveContext> context;
    Fill fill;
  };
  struct Input {
    std::size_t chip = 0;
    std::size_t trace = 0;
  };

  OpOutcome op(std::size_t k) {
    const Input& in = plan_[k % plan_.size()];
    const Chip& chip = *chips_[in.chip];
    tfc::sim::ScenarioOptions opts;
    opts.benchmark = trace_name(in.trace);
    opts.steps = kSteps;
    opts.dt = 1e-3;
    opts.frame_every = kFrameEvery;
    opts.control_every = 10;
    opts.dtm = true;
    opts.policy.theta_limit = tfc::thermal::to_kelvin(kLimitC);
    opts.policy.current_levels = {0.0, 0.5 * chip.current, chip.current};

    OpOutcome out;
    std::string stream;
    std::size_t frames = 0;
    bool seq_ok = true;
    tfc::sim::ScenarioSummary summary;
    std::optional<tfc::sim::ScenarioEngine> engine;
    {
      BenchSpan op_span("dtm_scenario.op", k);
      const auto t0 = Clock::now();
      {
        BenchSpan call("sim.build", k);
        engine.emplace(chip.plan, *chip.context, opts);
      }
      {
        BenchSpan call("sim.ScenarioEngine.run", k);
        summary = engine->run([&](const tfc::sim::Frame& frame) {
          BenchSpan sink("io.frame_json", k);
          seq_ok = seq_ok && frame.seq == frames;
          ++frames;
          stream += tfc::sim::frame_to_json(frame, chip.plan).dump();
          stream += '\n';
          return true;
        });
      }
      out.ms = ms_since(t0);
    }
    distinct_.push_back(double(summary.distinct_currents));
    op_chips_.push_back(in.chip);

    if (!seq_ok || frames != kFrames) {
      out.error = std::to_string(frames) + " frames, want " + std::to_string(kFrames) +
                  " with contiguous seq";
    } else if (summary.steps != kSteps || summary.frames != kFrames) {
      out.error = "summary reports " + std::to_string(summary.steps) + " steps";
    } else {
      // A repeated (chip, trace) input must stream byte-identical frames.
      const auto key = std::make_pair(in.chip, in.trace);
      const auto digest = std::make_pair(fnv1a(stream), stream.size());
      const auto [it, first] = streams_.emplace(key, digest);
      if (!first && it->second != digest) out.error = "frame stream differs from a repeat";
    }
    return out;
  }

  std::uint64_t seed_;
  std::vector<std::unique_ptr<Chip>> chips_;
  std::vector<Input> plan_;
  double power_ms_ = 0.0;
  std::map<std::pair<std::size_t, std::size_t>, std::pair<std::uint64_t, std::size_t>>
      streams_;
  std::vector<double> distinct_;
  std::vector<std::size_t> op_chips_;
};

}  // namespace

std::unique_ptr<Workload> make_dtm_scenario(std::uint64_t seed) {
  return std::make_unique<DtmScenario>(seed);
}

}  // namespace perfbench
