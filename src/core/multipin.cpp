#include "core/multipin.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "linalg/minimize.h"
#include "linalg/sparse_cholesky.h"

namespace tfc::core {

namespace {

/// Per-coordinate golden-section search: the ceiling [A] and tolerance [A].
constexpr double kCurrentCap = 20.0;
constexpr double kCurrentTol = 1e-3;
/// Stop when a full sweep improves the peak by less than this [K].
constexpr double kSweepTol = 1e-4;

}  // namespace

std::optional<tec::OperatingPoint> solve_multi_pin(
    const engine::SolveContext& context, const std::vector<double>& currents) {
  const auto& system = context.system();
  const auto& model = system.model();
  const auto& hot = model.hot_nodes();
  const auto& cold = model.cold_nodes();
  if (currents.size() != hot.size()) {
    throw std::invalid_argument("solve_multi_pin: current count mismatch");
  }
  for (double i : currents) {
    if (i < 0.0) return std::nullopt;
  }

  // System matrix G − Σ_j i_j·D_j: per-device Peltier diagonals.
  // D_hot = +α ⇒ stamp −i_j·α; D_cold = −α ⇒ stamp +i_j·α. The update
  // preserves G's pattern, so the shared symbolic analysis applies.
  const double alpha = system.device().seebeck;
  linalg::Vector d(system.node_count());
  for (std::size_t j = 0; j < hot.size(); ++j) {
    d[hot[j]] = -currents[j] * alpha;
    d[cold[j]] = currents[j] * alpha;
  }

  engine::SolveContext::WorkspaceLease ws(context);
  ws->forget_factor();  // about to hold a per-device pencil, not G − i·D
  ws->pencil.assign_add_scaled_diagonal(system.matrix_g(), d, 1.0);
  if (!system.cholesky_symbolic().refactorize_into(ws->pencil, ws->factor,
                                                   ws->factor_scratch)) {
    return std::nullopt;
  }

  // RHS: silicon power + ambient terms + per-device Joule halves.
  system.rhs_into(0.0, ws->rhs);
  const double r = system.device().resistance;
  for (std::size_t j = 0; j < hot.size(); ++j) {
    const double joule = 0.5 * r * currents[j] * currents[j];
    ws->rhs[hot[j]] += joule;
    ws->rhs[cold[j]] += joule;
  }

  tec::OperatingPoint op;
  op.current = 0.0;  // meaningless for the vector drive; see tec_input_power
  ws->factor.solve_into(ws->rhs, op.theta, ws->solve_scratch);
  op.tile_temperatures = model.tile_temperatures(op.theta);
  op.peak_tile_temperature = linalg::max_entry(op.tile_temperatures);
  op.tec_input_power = 0.0;
  for (std::size_t j = 0; j < hot.size(); ++j) {
    op.tec_input_power += system.device().input_power(
        currents[j], op.theta[hot[j]] - op.theta[cold[j]]);
  }
  return op;
}

std::optional<tec::OperatingPoint> solve_multi_pin(
    const tec::ElectroThermalSystem& system, const std::vector<double>& currents) {
  const engine::SolveContext context(system);
  return solve_multi_pin(context, currents);
}

MultiPinResult optimize_multi_pin(const tec::ElectroThermalSystem& system,
                                  double shared_start, std::size_t max_sweeps) {
  const std::size_t m = system.model().hot_nodes().size();
  if (m == 0) throw std::invalid_argument("optimize_multi_pin: system has no TECs");
  if (shared_start < 0.0) throw std::invalid_argument("optimize_multi_pin: bad start");

  // One context for the whole descent: shared symbolic analysis + pooled
  // workspaces across every coordinate probe.
  const engine::SolveContext context(system);
  MultiPinResult res;
  res.currents.assign(m, shared_start);
  auto op = solve_multi_pin(context, res.currents);
  if (!op) {
    // Shared start already past the vector runaway surface; restart from 0.
    res.currents.assign(m, 0.0);
    op = solve_multi_pin(context, res.currents);
    if (!op) throw std::runtime_error("optimize_multi_pin: passive solve failed");
  }
  double best = op->peak_tile_temperature;

  const linalg::MinimizeOptions search{kCurrentTol};
  for (std::size_t sweep = 0; sweep < max_sweeps; ++sweep) {
    const double before = best;
    for (std::size_t j = 0; j < m; ++j) {
      // Golden-section on coordinate j over [0, cap], infeasible points = +inf;
      // the candidate is the final bracket's midpoint.
      const auto eval = [&](double ij) {
        const double saved = res.currents[j];
        res.currents[j] = ij;
        auto o = solve_multi_pin(context, res.currents);
        res.currents[j] = saved;
        return o ? o->peak_tile_temperature : std::numeric_limits<double>::infinity();
      };
      const linalg::ScalarMinimum r =
          linalg::minimize_scalar(eval, 0.0, kCurrentCap, search);
      const double candidate = 0.5 * (r.lo + r.hi);
      const double f_candidate = eval(candidate);
      if (f_candidate < best) {
        best = f_candidate;
        res.currents[j] = candidate;
      }
    }
    res.sweeps = sweep + 1;
    if (before - best < kSweepTol) {
      res.converged = true;
      break;
    }
  }

  auto final_op = solve_multi_pin(context, res.currents);
  if (!final_op) throw std::runtime_error("optimize_multi_pin: final solve failed");
  res.peak_tile_temperature = final_op->peak_tile_temperature;
  res.tec_input_power = final_op->tec_input_power;
  return res;
}

GroupedPinResult optimize_grouped_pins(const tec::ElectroThermalSystem& system,
                                       const std::vector<std::size_t>& groups,
                                       double shared_start, std::size_t max_sweeps) {
  const std::size_t m = system.model().hot_nodes().size();
  if (m == 0) throw std::invalid_argument("optimize_grouped_pins: system has no TECs");
  if (groups.size() != m) {
    throw std::invalid_argument("optimize_grouped_pins: group assignment size mismatch");
  }
  std::size_t n_groups = 0;
  for (std::size_t g : groups) n_groups = std::max(n_groups, g + 1);
  for (std::size_t g = 0; g < n_groups; ++g) {
    if (std::find(groups.begin(), groups.end(), g) == groups.end()) {
      throw std::invalid_argument("optimize_grouped_pins: empty group id " +
                                  std::to_string(g));
    }
  }
  if (shared_start < 0.0) throw std::invalid_argument("optimize_grouped_pins: bad start");

  const engine::SolveContext context(system);
  GroupedPinResult res;
  res.group_currents.assign(n_groups, shared_start);

  const auto expand = [&](const std::vector<double>& gc) {
    std::vector<double> currents(m);
    for (std::size_t j = 0; j < m; ++j) currents[j] = gc[groups[j]];
    return currents;
  };

  auto op = solve_multi_pin(context, expand(res.group_currents));
  if (!op) {
    res.group_currents.assign(n_groups, 0.0);
    op = solve_multi_pin(context, expand(res.group_currents));
    if (!op) throw std::runtime_error("optimize_grouped_pins: passive solve failed");
  }
  double best = op->peak_tile_temperature;

  const linalg::MinimizeOptions search{kCurrentTol};
  for (std::size_t sweep = 0; sweep < max_sweeps; ++sweep) {
    const double before = best;
    for (std::size_t g = 0; g < n_groups; ++g) {
      const auto eval = [&](double ig) {
        const double saved = res.group_currents[g];
        res.group_currents[g] = ig;
        auto o = solve_multi_pin(context, expand(res.group_currents));
        res.group_currents[g] = saved;
        return o ? o->peak_tile_temperature : std::numeric_limits<double>::infinity();
      };
      const linalg::ScalarMinimum r =
          linalg::minimize_scalar(eval, 0.0, kCurrentCap, search);
      const double candidate = 0.5 * (r.lo + r.hi);
      const double f_candidate = eval(candidate);
      if (f_candidate < best) {
        best = f_candidate;
        res.group_currents[g] = candidate;
      }
    }
    res.sweeps = sweep + 1;
    if (before - best < kSweepTol) {
      res.converged = true;
      break;
    }
  }

  auto final_op = solve_multi_pin(context, expand(res.group_currents));
  if (!final_op) throw std::runtime_error("optimize_grouped_pins: final solve failed");
  res.peak_tile_temperature = final_op->peak_tile_temperature;
  res.tec_input_power = final_op->tec_input_power;
  return res;
}

std::vector<std::size_t> hotness_groups(const tec::ElectroThermalSystem& system,
                                        std::size_t n_groups) {
  const auto& tiles = system.model().tec_tiles();
  if (tiles.empty()) throw std::invalid_argument("hotness_groups: system has no TECs");
  if (n_groups == 0 || n_groups > tiles.size()) {
    throw std::invalid_argument("hotness_groups: need 1..#devices groups");
  }
  auto op = system.solve(0.0);
  if (!op) throw std::runtime_error("hotness_groups: passive solve failed");

  const std::size_t cols = system.model().tile_cols();
  std::vector<std::size_t> order(tiles.size());
  for (std::size_t j = 0; j < tiles.size(); ++j) order[j] = j;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double ta = op->tile_temperatures[tiles[a].row * cols + tiles[a].col];
    const double tb = op->tile_temperatures[tiles[b].row * cols + tiles[b].col];
    return ta > tb;
  });

  std::vector<std::size_t> groups(tiles.size());
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    groups[order[rank]] = std::min(n_groups - 1, rank * n_groups / order.size());
  }
  return groups;
}

}  // namespace tfc::core
