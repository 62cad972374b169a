/// \file scenario.h
/// \brief tfc::sim — transient & closed-loop DTM scenario engine.
///
/// The paper restricts itself to steady state, but its own motivation —
/// active cooling as a complement to architecture-level dynamic thermal
/// management — only plays out in time: TEC turn-on transients and
/// time-varying workload phases decide whether a θ-limit is actually held.
/// A ScenarioEngine integrates C·dθ/dt + G·θ = p(t) with the backward-Euler
/// thermal::TransientSolver, rasterizing per-tile power from a
/// power::WorkloadSynthesizer activity trace each step, switching the TEC
/// supply current through a step-function schedule and/or a closed-loop
/// core::DtmController, and emitting seq-numbered frames to a caller-owned
/// sink (the streaming `simulate` service method).
///
/// Every TEC pencil G − i·D keeps one sparsity pattern, so all current
/// levels share one symbolic Cholesky analysis; switching levels is a
/// numeric-only refactorization. Deterministic by construction: fixed
/// workload seed, fixed dt, no wall-clock values in frames — byte-identical
/// frame payloads at any thread count.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/tile.h"
#include "core/dtm.h"
#include "engine/solve_context.h"
#include "floorplan/floorplan.h"
#include "io/json.h"
#include "linalg/vector.h"
#include "power/workload.h"
#include "tec/device.h"
#include "tec/electro_thermal.h"
#include "thermal/package.h"
#include "thermal/transient.h"

namespace tfc::sim {

/// One point of the TEC supply schedule: from \p step onward the scheduled
/// current is \p current_a (a step function; later events override earlier).
struct CurrentEvent {
  std::size_t step = 0;
  double current_a = 0.0;
};

struct ScenarioOptions {
  /// Benchmark name fed to power::WorkloadSynthesizer (deterministic in the
  /// name + workload.seed).
  std::string benchmark = "bench00";
  power::WorkloadOptions workload;
  /// Integration step [s].
  double dt = 1e-3;
  /// Number of backward-Euler steps.
  std::size_t steps = 500;
  /// The DTM controller decides every this many steps (1 = every step).
  std::size_t control_every = 10;
  /// A frame is emitted every this many steps (the final step always emits).
  std::size_t frame_every = 10;
  /// Start from the passive steady state under the step-0 power map
  /// (otherwise: uniform ambient — a cold start).
  bool start_from_steady_state = true;
  /// Include the full per-tile temperature map in every frame.
  bool include_tiles = false;
  /// TEC supply schedule (step function over step index; empty = 0 A).
  /// When the controller is enabled the effective current is
  /// max(scheduled, controller) — the schedule is a floor, e.g. a forced
  /// turn-on event.
  std::vector<CurrentEvent> schedule;
  /// Run the closed-loop controller (policy below). Off: schedule only,
  /// unit activity stays at 1.
  bool dtm = true;
  core::DtmPolicyOptions policy;
};

/// One emitted observation frame. Carries only simulated time — never
/// wall-clock — so payloads are byte-identical across runs and thread
/// counts.
struct Frame {
  std::size_t seq = 0;
  std::size_t step = 0;
  /// Simulated time at the END of \p step [s], i.e. (step + 1)·dt.
  double time_s = 0.0;
  /// Peak silicon tile temperature [K].
  double peak_k = 0.0;
  /// Effective TEC supply current during the step [A].
  double current_a = 0.0;
  /// Controller's retained-performance proxy ∈ [0, 1] (1 when dtm is off).
  double performance = 1.0;
  /// Controller actions taken since the previous frame (kNone excluded).
  std::vector<core::DtmAction> actions;
  /// Per-tile temperatures [K], row-major; empty unless
  /// ScenarioOptions::include_tiles.
  linalg::Vector tile_k;
};

struct ScenarioSummary {
  std::size_t steps = 0;
  std::size_t frames = 0;
  double max_peak_k = 0.0;
  double final_peak_k = 0.0;
  /// Steps whose end-of-step peak exceeded policy.theta_limit.
  std::size_t violation_steps = 0;
  /// True iff the final step's peak met the limit.
  bool limit_held_at_end = false;
  /// Time-average of the controller's performance proxy.
  double retained_performance = 1.0;
  double min_performance = 1.0;
  /// Σ over energized steps of TEC electrical input power × dt [J].
  double tec_energy_j = 0.0;
  /// Fraction of steps with nonzero TEC current.
  double duty_cycle = 0.0;
  std::size_t throttle_actions = 0;
  std::size_t boost_actions = 0;
  std::size_t current_up_actions = 0;
  std::size_t current_down_actions = 0;
  /// Distinct current levels integrated (== transient factorizations held).
  std::size_t distinct_currents = 0;
  /// True when the frame sink requested an early stop.
  bool aborted = false;
};

/// Frame consumer; return false to abort the run (ScenarioSummary::aborted).
using FrameSink = std::function<bool(const Frame&)>;

/// Transient scenario driver for one chip + deployment. Not thread-safe;
/// run() may be called repeatedly (each run restarts from the initial
/// condition and a fresh controller).
class ScenarioEngine {
 public:
  /// Assemble the coupled system of \p spec for \p deployment (may be empty
  /// — the passive baseline) and synthesize the workload trace over \p plan,
  /// which must tile the spec's virtual grid (for a StackSpec without its own
  /// chip floorplan, spec->combined_floorplan(): every die's floorplan or
  /// uniform power block, stacked row-wise and prefixed "chip.layer.", so
  /// each die gets its own per-unit activity trace). \p plan must outlive
  /// the engine. Throws std::invalid_argument on grid mismatch or bad
  /// options.
  ScenarioEngine(const floorplan::Floorplan& plan,
                 std::shared_ptr<const thermal::StackSpec> spec,
                 const tec::TecDeviceParams& device, const TileMask& deployment,
                 ScenarioOptions options = {});

  /// Reuse an engine::SolveContext's already-assembled system (shares its
  /// symbolic-analysis cache; the context is not retained).
  ScenarioEngine(const floorplan::Floorplan& plan, const engine::SolveContext& context,
                 ScenarioOptions options = {});

  const ScenarioOptions& options() const { return options_; }
  const tec::ElectroThermalSystem& system() const { return system_; }

  /// Integrate the scenario, emitting frames to \p sink (pass nullptr to run
  /// silently). Returns the summary. Records sim.* metrics and opens a
  /// "sim.run" span.
  ScenarioSummary run(const FrameSink& sink = nullptr);

 private:
  ScenarioEngine(const floorplan::Floorplan& plan, tec::ElectroThermalSystem system,
                 ScenarioOptions options);

  /// Scheduled current at \p step (last event at or before it; 0 if none).
  double scheduled_current(std::size_t step) const;

  /// The per-level integrator, created on first use; every level shares the
  /// first level's symbolic analysis.
  thermal::TransientSolver& solver_for(double current);

  /// Rasterize the per-tile power map of \p step under \p scales into
  /// tile_power_scratch_, then build the RHS (ambient + silicon shares +
  /// Joule at \p current) into rhs_scratch_.
  void build_rhs(std::size_t step, const std::vector<double>& scales, double current);

  const floorplan::Floorplan* plan_;
  ScenarioOptions options_;
  tec::ElectroThermalSystem system_;
  power::ActivityTrace trace_;

  // Static precomputations (package-only; shared by every run()).
  std::vector<std::vector<std::size_t>> unit_tiles_;  ///< [unit] -> tile ids
  std::vector<std::size_t> tile_nodes_;               ///< [tile] -> silicon node
  linalg::Vector ambient_rhs_;

  std::map<double, thermal::TransientSolver> solvers_;

  // run() scratch.
  linalg::Vector tile_power_scratch_;
  linalg::Vector rhs_scratch_;
  linalg::Vector theta_;
  linalg::Vector theta_next_;
  linalg::Vector tiles_scratch_;
};

/// Frame -> JSON (the streaming NDJSON schema; see docs/SIMULATION.md).
/// \p plan resolves action unit indices to names.
io::JsonValue frame_to_json(const Frame& frame, const floorplan::Floorplan& plan);

/// Summary -> JSON (the final reply / CLI footer).
io::JsonValue summary_to_json(const ScenarioSummary& summary);

}  // namespace tfc::sim
