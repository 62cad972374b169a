/// \file scenario.h
/// \brief tfc::sim — transient & closed-loop DTM scenario engine.
///
/// The paper restricts itself to steady state, but its own motivation —
/// active cooling as a complement to architecture-level dynamic thermal
/// management — only plays out in time: TEC turn-on transients and
/// time-varying workload phases decide whether a θ-limit is actually held.
/// A ScenarioEngine integrates C·dθ/dt + G·θ = p(t) with the backward-Euler
/// thermal::TransientSolver, rasterizing per-tile power each step from a
/// per-unit activity trace (synthesized by power::WorkloadSynthesizer, or
/// built by the caller), switching the TEC supply current through a
/// step-function schedule and/or a closed-loop core::DtmController, and
/// emitting seq-numbered frames to a caller-owned sink (the streaming
/// `simulate` service method). It is the library's one transient loop: the
/// on-demand hysteresis switch is a DtmController policy (min_scale 1,
/// current_levels {0, I_on}) driven every step.
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
#include <optional>
#include <string>
#include <vector>

#include "common/tile.h"
#include "core/chip.h"
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
  /// name + workload.seed). A caller-built trace's name replaces it.
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
  /// (otherwise: uniform ambient — a cold start). A caller-built trace can
  /// put the workload's time-average activity in tick 0 so the slow
  /// spreader and sink start at their sustained temperatures.
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
  /// Integrate over an engine::SolveContext's already-assembled system
  /// (shares its symbolic-analysis cache; the context is not retained) and
  /// synthesize the workload trace over \p plan, which must tile the
  /// context's virtual grid (for a StackSpec without its own chip
  /// floorplan, spec->combined_floorplan(): every die's floorplan or
  /// uniform power block, stacked row-wise and prefixed "chip.layer.", so
  /// each die gets its own per-unit activity trace). \p plan must outlive
  /// the engine. Throws std::invalid_argument on grid mismatch or bad
  /// options.
  ScenarioEngine(const floorplan::Floorplan& plan, const engine::SolveContext& context,
                 ScenarioOptions options = {});

  /// As above, but drive the caller-built per-unit activity \p trace (one
  /// row per unit of \p plan, step s reads tick s mod length) instead of a
  /// synthesized one; options().benchmark becomes trace.benchmark and
  /// options.workload is unused. Throws std::invalid_argument when the row
  /// count differs from the unit count, the rows are empty or differ in
  /// length, or a utilization is negative or non-finite.
  ScenarioEngine(const floorplan::Floorplan& plan, const engine::SolveContext& context,
                 power::ActivityTrace trace, ScenarioOptions options = {});

  const ScenarioOptions& options() const { return options_; }
  const tec::ElectroThermalSystem& system() const { return system_; }

  /// Integrate the scenario, emitting frames to \p sink (pass nullptr to run
  /// silently). Returns the summary. Records sim.* metrics and opens a
  /// "sim.run" span.
  ScenarioSummary run(const FrameSink& sink = nullptr);

 private:
  /// Shared construction; synthesizes the trace from options when \p trace
  /// is empty.
  ScenarioEngine(const floorplan::Floorplan& plan, tec::ElectroThermalSystem system,
                 std::optional<power::ActivityTrace> trace, ScenarioOptions options);

  /// Scheduled current at \p step (last event at or before it; 0 if none).
  double scheduled_current(std::size_t step) const;

  /// The per-level integrator, created on first use; every level shares the
  /// first level's symbolic analysis.
  thermal::TransientSolver& solver_for(double current);

  /// Rasterize the per-tile power map of \p step under \p scales into
  /// tile_power_scratch_, then build the RHS (ElectroThermalSystem::rhs_into
  /// at \p current) into rhs_scratch_.
  void build_rhs(std::size_t step, const std::vector<double>& scales, double current);

  const floorplan::Floorplan* plan_;
  ScenarioOptions options_;
  tec::ElectroThermalSystem system_;
  power::ActivityTrace trace_;

  std::vector<std::vector<std::size_t>> unit_tiles_;  ///< [unit] -> tile ids

  std::map<double, thermal::TransientSolver> solvers_;

  // run() scratch.
  linalg::Vector tile_power_scratch_;
  linalg::Vector rhs_scratch_;
  linalg::Vector theta_;
  linalg::Vector theta_next_;
  linalg::Vector tiles_scratch_;
};

/// One `simulate` request as both front ends take it (CLI flags, service
/// params): the scenario fields plus the TEC supply and its forced schedule.
struct SimulateRequest {
  std::string benchmark = "bench00";
  double dt = 1e-3;
  std::size_t steps = 500;
  std::size_t frame_every = 10;
  std::size_t control_every = 10;
  bool dtm = true;
  bool tiles = false;
  /// Start from uniform ambient (CLI --cold-start; the service has no such
  /// param).
  bool cold_start = false;
  /// TEC supply ceiling [A]; absent: the session's designed optimum.
  std::optional<double> current;
  /// Force the supply on from this step (a floor under the controller).
  std::optional<std::size_t> tec_on;
  /// Turn the forced supply off from this step; only together with tec_on.
  std::optional<std::size_t> tec_off;

  /// Throws std::invalid_argument unless steps is in [1, 100000], dt in
  /// (0, 10] s, frame_every and control_every >= 1, current finite and
  /// >= 0, tec_on <= steps, and tec_off (given only with tec_on) in
  /// (tec_on, steps].
  void validate() const;

  /// The supply current: current, else the session's designed optimum [A].
  double supply(const core::Session& session) const;

  /// Scenario options on \p session (validated first), DTM limit at the
  /// session's requested θ-limit. Nothing is scheduled unless TECs are
  /// deployed and the supply i is > 0. Under DTM the controller's levels are
  /// {0, i/2, i} and tec_on adds a floor of i; with DTM off the supply runs
  /// at i from tec_on (default step 0). tec_off ends either.
  ScenarioOptions options(const core::Session& session) const;
};

/// Run \p request on \p session's context, emitting frames to \p sink.
ScenarioSummary simulate(const core::Session& session, const SimulateRequest& request,
                         const FrameSink& sink);

/// Frame -> JSON (the streaming NDJSON schema; see docs/SIMULATION.md).
/// \p plan resolves action unit indices to names.
io::JsonValue frame_to_json(const Frame& frame, const floorplan::Floorplan& plan);

/// Summary -> JSON (the final reply / CLI footer).
io::JsonValue summary_to_json(const ScenarioSummary& summary);

}  // namespace tfc::sim
