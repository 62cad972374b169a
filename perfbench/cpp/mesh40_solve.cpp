/// \file mesh40_solve.cpp
/// \brief Workload mesh40_solve: one op builds a fresh engine::SolveContext
/// on the examples/highres_100x100.json stack meshed at 40x40 tiles (~6.4k
/// nodes) with one 4x4 TEC block, solves at 0 A and at a seeded current, and
/// audits both operating points. The only workload where ordering and fill
/// dominate.

#include <memory>

#include "engine/solve_context.h"
#include "harness.h"
#include "io/json.h"
#include "io/spec_json.h"
#include "obs/health.h"
#include "thermal/stack_spec.h"

namespace perfbench {
namespace {

constexpr std::size_t kGrid = 40;
constexpr std::size_t kBlock = 4;
constexpr std::size_t kAnchors = 3;  // block anchors per axis
constexpr std::size_t kAnchorTiles[kAnchors] = {4, 18, 32};
constexpr std::size_t kPlannedOps = 512;

/// examples/highres_100x100.json at 40x40 tiles. Kept here rather than read
/// from the example so the workload's input never changes under the program.
constexpr const char* kBaseSpec = R"({
  "name": "highres-40x40",
  "chips": [{
    "name": "chip0", "width": 0.006, "height": 0.006, "x": 0, "y": 0,
    "tile_rows": 40, "tile_cols": 40,
    "layers": [
      {"kind": "die", "name": "die", "material": "silicon", "thickness": 0.0003,
       "power_w": 20},
      {"kind": "interface", "name": "tim", "material": "TIM", "thickness": 5e-05,
       "tec_capable": true}
    ]
  }],
  "spreader": {"side": 0.03, "thickness": 0.001, "material": "copper"},
  "sink": {"side": 0.06, "thickness": 0.0069, "material": "copper"},
  "convection_resistance": 0.95,
  "ambient_k": 318.15
})";

class Mesh40Solve final : public Workload {
 public:
  explicit Mesh40Solve(std::uint64_t seed) : seed_(seed) {}

  const char* name() const override { return "mesh40_solve"; }
  double nominal_ops_per_s() const override { return 0.95; }
  std::size_t op_cycle() const override { return kAnchors * kAnchors; }

  std::string setup() override {
    base_ = tfc::io::spec_from_json(tfc::io::parse_json(kBaseSpec));
    base_.validate();
    plan_.clear();
    // Each cycle of 9 ops puts the block once near every anchor of a 3x3
    // grid spanning corners, edges and centre, jittered by up to one tile,
    // so every run sees the same spread of RCM orderings and fill.
    Rng rng(seed_, 2);
    while (plan_.size() < kPlannedOps) {
      for (std::size_t anchor : rng.permutation(kAnchors * kAnchors)) {
        Input in;
        in.row = kAnchorTiles[anchor / kAnchors] + rng.below(3) - 1;
        in.col = kAnchorTiles[anchor % kAnchors] + rng.below(3) - 1;
        in.die_m = rng.uniform(0.2e-3, 0.4e-3);
        in.tim_m = rng.uniform(25e-6, 75e-6);
        in.current_a = rng.uniform(0.1, 9.9);
        plan_.push_back(in);
      }
    }
    // The warm-up op is the same for every seed (the top-edge anchor, the
    // base thicknesses, 5 A), so setup_s does not depend on the seed.
    Input warm_up;
    warm_up.row = kAnchorTiles[0];
    warm_up.col = kAnchorTiles[1];
    warm_up.die_m = base_.chips[0].layers[0].thickness;
    warm_up.tim_m = base_.chips[0].layers[1].thickness;
    warm_up.current_a = 5.0;
    return op(0, warm_up).error;
  }

  PhaseResult run(const Budget& budget) override {
    fills_.clear();
    return run_closed_loop(
        name(), budget, [this](std::size_t k) { return op(k, plan_[k % plan_.size()]); },
        [this](std::size_t k) {
          const Input& in = plan_[k % plan_.size()];
          return "block=(" + std::to_string(in.row) + "," + std::to_string(in.col) +
                 ") die_m=" + std::to_string(in.die_m) +
                 " tim_m=" + std::to_string(in.tim_m) +
                 " current_a=" + std::to_string(in.current_a);
        });
  }

  void layer_metrics(const TraceWindow&, MetricMap& out) override {
    double nnz = 0.0, fill = 0.0;
    for (const Fill& f : fills_) {
      nnz += f.nnz;
      fill += f.ratio;
    }
    const double n = double(std::max<std::size_t>(fills_.size(), 1));
    out["linalg.factor_nnz"] = nnz / n;
    out["linalg.fill_ratio"] = fill / n;
  }

 private:
  struct Input {
    std::size_t row = 0;
    std::size_t col = 0;
    double die_m = 0.0;
    double tim_m = 0.0;
    double current_a = 0.0;
  };

  OpOutcome op(std::size_t k, const Input& in) {
    tfc::thermal::StackSpec variant = base_;
    variant.chips[0].layers[0].thickness = in.die_m;
    variant.chips[0].layers[1].thickness = in.tim_m;
    variant.validate();
    auto spec = std::make_shared<const tfc::thermal::StackSpec>(std::move(variant));
    const tfc::linalg::Vector powers = spec->tile_powers();
    tfc::TileMask block(kGrid, kGrid);
    for (std::size_t r = 0; r < kBlock; ++r) {
      for (std::size_t c = 0; c < kBlock; ++c) block.set(in.row + r, in.col + c);
    }
    const auto device = tfc::tec::TecDeviceParams::chowdhury_superlattice();

    OpOutcome out;
    std::optional<tfc::engine::SolveContext> ctx;
    std::optional<tfc::tec::OperatingPoint> passive, active;
    tfc::obs::health::Certificate cert_passive, cert_active;
    {
      BenchSpan op_span("mesh40_solve.op", k);
      const auto t0 = Clock::now();
      {
        BenchSpan call("engine.SolveContext", k);
        ctx.emplace(spec, block, powers, device);
      }
      {
        BenchSpan call("engine.solve", k);
        passive = ctx->solve(0.0);
        active = ctx->solve(in.current_a);
      }
      {
        BenchSpan call("engine.audit", k);
        if (passive) cert_passive = ctx->audit(*passive);
        if (active) cert_active = ctx->audit(*active);
      }
      out.ms = ms_since(t0);
    }

    fills_.push_back(factor_fill(ctx->system()));

    const tfc::obs::health::Tolerances tol;
    if (!passive) {
      out.error = "no operating point at 0 A";
    } else if (!active) {
      out.error = "no operating point at the seeded current";
    } else if (!cert_passive.pass(tol)) {
      out.error = "0 A audit failed: " + cert_passive.describe();
    } else if (!cert_active.pass(tol)) {
      out.error = "seeded-current audit failed: " + cert_active.describe();
    }
    return out;
  }

  std::uint64_t seed_;
  tfc::thermal::StackSpec base_;
  std::vector<Input> plan_;
  std::vector<Fill> fills_;
};

}  // namespace

std::unique_ptr<Workload> make_mesh40_solve(std::uint64_t seed) {
  return std::make_unique<Mesh40Solve>(seed);
}

}  // namespace perfbench
