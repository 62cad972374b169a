#include "core/dtm.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "tec/electro_thermal.h"

namespace tfc::core {

const char* dtm_action_name(DtmActionKind kind) {
  switch (kind) {
    case DtmActionKind::kNone: return "none";
    case DtmActionKind::kThrottle: return "throttle";
    case DtmActionKind::kBoost: return "boost";
    case DtmActionKind::kCurrentUp: return "current_up";
    case DtmActionKind::kCurrentDown: return "current_down";
  }
  return "unknown";
}

DtmController::DtmController(const floorplan::Floorplan& plan, DtmPolicyOptions options)
    : plan_(&plan), options_(std::move(options)) {
  if (!(options_.min_scale >= 0.0 && options_.min_scale <= 1.0)) {
    throw std::invalid_argument("DtmController: min_scale must be in [0, 1]");
  }
  if (!(options_.guard_band >= 0.0)) {
    throw std::invalid_argument("DtmController: guard_band must be >= 0");
  }
  for (std::size_t k = 0; k < options_.current_levels.size(); ++k) {
    if (options_.current_levels[k] < 0.0 ||
        (k > 0 && options_.current_levels[k] <= options_.current_levels[k - 1])) {
      throw std::invalid_argument(
          "DtmController: current_levels must be ascending and non-negative");
    }
  }
  scales_.assign(plan.units().size(), 1.0);
}

double DtmController::current() const {
  return options_.current_levels.empty() ? 0.0 : options_.current_levels[level_];
}

double DtmController::performance() const {
  double retained = 0.0;
  double total = 0.0;
  for (std::size_t u = 0; u < plan_->units().size(); ++u) {
    retained += scales_[u] * plan_->units()[u].peak_power;
    total += plan_->units()[u].peak_power;
  }
  return total > 0.0 ? retained / total : 1.0;
}

DtmAction DtmController::decide(const linalg::Vector& tile_temperatures) {
  if (tile_temperatures.size() != plan_->tile_count()) {
    throw std::invalid_argument("DtmController::decide: tile grid mismatch");
  }
  const std::size_t hottest = linalg::argmax(tile_temperatures);
  const double peak = tile_temperatures[hottest];

  DtmAction action;
  action.current_a = current();

  if (peak > options_.theta_limit) {
    // Thermal emergency: move one actuator, the TEC current first.
    if (level_ + 1 < options_.current_levels.size()) {
      ++level_;
      action.kind = DtmActionKind::kCurrentUp;
      action.current_a = current();
      return action;
    }
    // Then throttle the unit owning the hottest tile among units that still
    // have headroom (a floored hot unit must not deadlock the controller
    // while cooler units keep heating the die).
    std::size_t victim = scales_.size();
    double victim_peak = 0.0;
    for (std::size_t t = 0; t < plan_->tile_count(); ++t) {
      const auto unit = plan_->unit_at({t / plan_->tile_cols(), t % plan_->tile_cols()});
      if (!unit || scales_[*unit] <= options_.min_scale + 1e-12) continue;
      if (victim == scales_.size() || tile_temperatures[t] > victim_peak) {
        victim = *unit;
        victim_peak = tile_temperatures[t];
      }
    }
    if (victim == scales_.size()) return action;  // kNone: every actuator exhausted
    double& scale = scales_[victim];
    scale = std::max(options_.min_scale, scale - kDtmScaleStep);
    action.kind = DtmActionKind::kThrottle;
    action.unit = victim;
    action.scale = scale;
    return action;
  }

  if (peak < options_.theta_limit - options_.guard_band) {
    // Headroom: first give units their activity back, then save TEC power.
    std::size_t most_throttled = scales_.size();
    for (std::size_t u = 0; u < scales_.size(); ++u) {
      if (scales_[u] < 1.0 - 1e-12 &&
          (most_throttled == scales_.size() || scales_[u] < scales_[most_throttled])) {
        most_throttled = u;
      }
    }
    if (most_throttled < scales_.size()) {
      double& scale = scales_[most_throttled];
      scale = std::min(1.0, scale + kDtmBoostStep);
      action.kind = DtmActionKind::kBoost;
      action.unit = most_throttled;
      action.scale = scale;
      return action;
    }
    if (level_ > 0) {
      --level_;
      action.kind = DtmActionKind::kCurrentDown;
      action.current_a = current();
      return action;
    }
  }
  return action;  // kNone: inside the guard band, or nothing to recover
}

DtmResult simulate_dtm(const floorplan::Floorplan& plan,
                       std::shared_ptr<const thermal::StackSpec> spec,
                       const tec::TecDeviceParams& device, const TileMask& deployment,
                       const DtmPolicyOptions& policy) {
  if (spec == nullptr) throw std::invalid_argument("simulate_dtm: null spec");
  if (plan.tile_rows() != spec->total_tile_rows() ||
      plan.tile_cols() != spec->tile_cols()) {
    throw std::invalid_argument("simulate_dtm: floorplan/package grid mismatch");
  }
  DtmController controller(plan, policy);
  // G − i·D does not depend on the power map: one system, one factorization
  // per current, and a new right-hand side per round.
  const auto system = tec::ElectroThermalSystem::assemble(std::move(spec), deployment,
                                                          plan.tile_powers(), device);
  tec::SolveWorkspace ws;
  linalg::Vector powers(plan.tile_count());

  DtmResult res;
  for (;;) {
    const double current = controller.current();
    // Refactors only when the current moved (the workspace records its factor).
    if (!system.factorize_into(current, ws)) {
      throw std::runtime_error("simulate_dtm: solve failed (runaway current?)");
    }
    plan.tile_powers_into(controller.unit_scales(), powers);  // the throttled map
    system.rhs_into(current, powers, ws.rhs);
    ws.factor.solve_into(ws.rhs, ws.theta, ws.solve_scratch);
    system.model().tile_temperatures_into(ws.theta, ws.tiles);
    res.peak = linalg::max_entry(ws.tiles);
    if (res.peak <= policy.theta_limit) {
      res.met_limit = true;
      break;
    }
    if (controller.decide(ws.tiles).kind == DtmActionKind::kNone) break;
    ++res.rounds;
  }
  res.unit_scales = controller.unit_scales();
  res.performance = controller.performance();
  return res;
}

}  // namespace tfc::core
