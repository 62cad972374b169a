#include "core/on_demand.h"

#include <stdexcept>

#include "par/parallel.h"
#include "thermal/steady_state.h"
#include "thermal/transient.h"

namespace tfc::core {

OnDemandResult simulate_on_demand(
    const tec::ElectroThermalSystem& system,
    const std::function<linalg::Vector(std::size_t)>& tile_powers_at,
    const OnDemandOptions& options) {
  if (system.device_count() == 0) {
    throw std::invalid_argument("simulate_on_demand: system has no TECs");
  }
  if (!(options.dt > 0.0)) {
    throw std::invalid_argument("simulate_on_demand: dt must be positive, got " +
                                std::to_string(options.dt));
  }
  if (options.steps == 0) {
    throw std::invalid_argument("simulate_on_demand: steps must be nonzero");
  }
  if (!(options.theta_off < options.theta_on)) {
    throw std::invalid_argument(
        "simulate_on_demand: theta_off (" + std::to_string(options.theta_off) +
        " K) must be below theta_on (" + std::to_string(options.theta_on) + " K)");
  }
  if (!(options.on_current > 0.0)) {
    throw std::invalid_argument("simulate_on_demand: on_current must be positive, got " +
                                std::to_string(options.on_current));
  }

  const auto& model = system.model();
  const auto& net = model.network();
  const std::size_t n = model.node_count();
  const double ambient = model.ambient();
  const double i_on = options.on_current;

  // Two fixed-topology integrators: TECs off (G) and on (G − i_on·D). The
  // pencil keeps one pattern, so both share one symbolic Cholesky analysis.
  const auto cap = net.capacitance_vector();
  thermal::TransientSolver off_stepper(system.system_matrix(0.0), cap, options.dt);
  thermal::TransientSolver on_stepper(system.system_matrix(i_on), cap, options.dt,
                                      off_stepper.symbolic());

  // Precompute the per-tile silicon nodes and static RHS pieces.
  const std::size_t rows = model.tile_rows();
  const std::size_t cols = model.tile_cols();
  std::vector<std::size_t> tile_nodes(rows * cols);
  for (std::size_t t = 0; t < rows * cols; ++t) {
    tile_nodes[t] = model.silicon_node({t / cols, t % cols});
  }
  linalg::Vector ambient_rhs(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double g = net.ambient_conductance(k);
    if (g > 0.0) ambient_rhs[k] = g * ambient;
  }
  const double joule = 0.5 * system.device().resistance * i_on * i_on;

  const auto rhs_for = [&](const linalg::Vector& tile_powers, bool on) {
    if (tile_powers.size() != rows * cols) {
      throw std::invalid_argument("simulate_on_demand: tile power size mismatch");
    }
    linalg::Vector rhs = ambient_rhs;
    for (std::size_t t = 0; t < rows * cols; ++t) rhs[tile_nodes[t]] += tile_powers[t];
    if (on) {
      for (std::size_t hot : model.hot_nodes()) rhs[hot] += joule;
      for (std::size_t cold : model.cold_nodes()) rhs[cold] += joule;
    }
    return rhs;
  };

  // Initial condition.
  linalg::Vector theta(n, ambient);
  if (options.start_from_steady_state) {
    auto g0 = system.system_matrix(0.0);
    const linalg::Vector& p0 =
        options.equilibrate_at ? *options.equilibrate_at : tile_powers_at(0);
    theta = thermal::solve_steady_state(g0, rhs_for(p0, false));
  }

  OnDemandResult res;
  res.peak_timeline = linalg::Vector(options.steps);
  res.tec_on.assign(options.steps, false);
  bool on = false;
  std::size_t on_steps = 0;
  linalg::Vector next(n);

  for (std::size_t s = 0; s < options.steps; ++s) {
    const double peak = model.peak_tile_temperature(theta);
    const bool was_on = on;
    if (!on && peak > options.theta_on) on = true;
    if (on && peak < options.theta_off) on = false;
    if (on != was_on && s > 0) ++res.switch_count;

    const auto rhs = rhs_for(tile_powers_at(s), on);
    (on ? on_stepper : off_stepper).step_into(theta, rhs, next);
    std::swap(theta, next);

    res.peak_timeline[s] = model.peak_tile_temperature(theta);
    res.tec_on[s] = on;
    if (on) {
      ++on_steps;
      res.tec_energy += system.tec_input_power(i_on, theta) * options.dt;
    }
    res.max_peak = std::max(res.max_peak, res.peak_timeline[s]);
  }
  res.duty_cycle = double(on_steps) / double(options.steps);
  return res;
}

OnDemandResult simulate_on_demand(
    const engine::SolveContext& context,
    const std::function<linalg::Vector(std::size_t)>& tile_powers_at,
    const OnDemandOptions& options) {
  return simulate_on_demand(context.system(), tile_powers_at, options);
}

std::vector<OnDemandResult> sweep_on_demand(
    const tec::ElectroThermalSystem& system,
    const std::function<linalg::Vector(std::size_t)>& tile_powers_at,
    const std::vector<OnDemandOptions>& configs) {
  return par::parallel_map(configs.size(), [&](std::size_t k) {
    return simulate_on_demand(system, tile_powers_at, configs[k]);
  });
}

}  // namespace tfc::core
