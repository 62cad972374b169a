/// \file dtm.h
/// \brief Dynamic thermal management co-study (extension; the paper's
/// introduction motivates active cooling by its synergy with
/// "architecture-level thermal management mechanisms").
///
/// One throttle rule, DtmController, serves two drivers: the time-domain
/// closed loop of tfc::sim and simulate_dtm's steady-state abstraction of
/// DVFS-style throttling, which scales down the power of the unit owning the
/// hottest tile while the steady peak exceeds the limit. The retained
/// power-weighted activity is the performance proxy. Running the same
/// controller with and without a TEC deployment quantifies how much
/// throttling the active cooling system avoids.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/tile.h"
#include "floorplan/floorplan.h"
#include "tec/device.h"
#include "thermal/package.h"
#include "thermal/stack_spec.h"

namespace tfc::core {

/// Scale taken from the offending unit per throttle action.
inline constexpr double kDtmScaleStep = 0.05;
/// Scale given back to the most-throttled unit per recovery action.
inline constexpr double kDtmBoostStep = 0.05;

/// Policy of DtmController (tfc::sim's closed loop and simulate_dtm). Besides
/// throttling it has a recovery path (boost) and a TEC supply-current
/// schedule: when the peak runs hot the controller first escalates the TEC
/// current through \p current_levels (active cooling is cheaper than lost
/// performance — the paper's motivating synergy), then throttles; with
/// headroom it first gives units their activity back, then steps the current
/// down. With min_scale 1 and current_levels {0, I} it is a hysteresis
/// (bang-bang) TEC switch: on above theta_limit, off below
/// theta_limit − guard_band.
struct DtmPolicyOptions {
  /// Temperature limit the controller enforces [K].
  double theta_limit = thermal::to_kelvin(85.0);
  /// Hysteresis band [K]: recovery actions require peak < theta_limit − band.
  double guard_band = 1.0;
  /// Floor on any unit's scale, in [0, 1] (a unit cannot be gated off
  /// completely). 1 disables throttling: no unit has headroom, so the
  /// controller only schedules the TEC current.
  double min_scale = 0.2;
  /// Ascending TEC supply levels [A] the controller may schedule; index 0 is
  /// the starting level. Empty: the controller never touches the current.
  std::vector<double> current_levels;
};

enum class DtmActionKind : std::uint8_t {
  kNone = 0,      ///< no headroom to recover, nothing over the limit
  kThrottle,      ///< scaled down the unit owning the hottest tile
  kBoost,         ///< restored activity to the most-throttled unit
  kCurrentUp,     ///< stepped the TEC supply current up one level
  kCurrentDown,   ///< stepped the TEC supply current down one level
};

/// Stable lowercase name ("none", "throttle", "boost", "current_up",
/// "current_down") — the frame-schema vocabulary.
const char* dtm_action_name(DtmActionKind kind);

/// One control decision: the kind plus the resulting actuator state.
struct DtmAction {
  DtmActionKind kind = DtmActionKind::kNone;
  /// Unit acted on (kThrottle/kBoost only).
  std::size_t unit = 0;
  /// That unit's scale after the action.
  double scale = 1.0;
  /// TEC supply current after the action [A].
  double current_a = 0.0;
};

/// Stateful DTM controller: call decide() once per control
/// interval with the current tile temperatures; read the actuator state
/// (unit_scales / current) back between calls. Deterministic: decisions
/// depend only on the temperature sequence.
class DtmController {
 public:
  /// Throws std::invalid_argument on bad policy options (min_scale outside
  /// [0, 1], negative guard band, non-ascending or negative current levels).
  explicit DtmController(const floorplan::Floorplan& plan, DtmPolicyOptions options = {});

  /// One control decision for the given silicon tile temperatures [K]
  /// (row-major, plan grid). At most one actuator moves per call.
  DtmAction decide(const linalg::Vector& tile_temperatures);

  const DtmPolicyOptions& options() const { return options_; }
  const std::vector<double>& unit_scales() const { return scales_; }
  /// The TEC supply current the controller currently schedules [A].
  double current() const;
  /// Power-weighted retained activity: Σ scale_u·p_u / Σ p_u ∈ [0, 1].
  double performance() const;

 private:
  const floorplan::Floorplan* plan_;
  DtmPolicyOptions options_;
  std::vector<double> scales_;
  std::size_t level_ = 0;  ///< index into options_.current_levels
};

/// Outcome of steady-state throttling (simulate_dtm).
struct DtmResult {
  /// Final per-unit activity scales in [min_scale, 1].
  std::vector<double> unit_scales;
  /// Power-weighted retained activity: Σ scale_u·p_u / Σ p_u ∈ [0, 1].
  double performance = 0.0;
  /// Final peak tile temperature [K].
  double peak = 0.0;
  /// Controller actions taken before the final solve.
  std::size_t rounds = 0;
  /// True iff the final steady peak meets the limit.
  bool met_limit = false;
};

/// Steady-state throttling on the package \p spec with TEC devices on
/// \p deployment (may be empty: the passive baseline). Solves the steady
/// state and, while its peak tile temperature exceeds policy.theta_limit,
/// lets a DtmController decide one action and solves again; it stops at the
/// limit or at the first kNone (every actuator exhausted). The guard band
/// and boost never apply. The TEC current is the controller's:
/// policy.current_levels {} is 0 A and {I} a fixed I. \p plan must tile the
/// spec's virtual grid. Throws std::invalid_argument on a null spec, a grid
/// mismatch or a bad policy, and std::runtime_error when G − i·D is not
/// positive definite (a current at or past λ_m).
DtmResult simulate_dtm(const floorplan::Floorplan& plan,
                       std::shared_ptr<const thermal::StackSpec> spec,
                       const tec::TecDeviceParams& device, const TileMask& deployment,
                       const DtmPolicyOptions& policy);

}  // namespace tfc::core
