#include "thermal/nonlinear.h"

#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>

namespace tfc::thermal {

NonlinearResult solve_steady_state_nonlinear(const StackSpec& spec,
                                             const linalg::Vector& tile_powers,
                                             const NonlinearOptions& nonlinear) {
  if (nonlinear.max_iterations == 0 || !(nonlinear.tol > 0.0) ||
      !(nonlinear.reference_temperature > 0.0)) {
    throw std::invalid_argument("solve_steady_state_nonlinear: bad options");
  }

  spec.validate();
  const double k_ref = spec.chips.front().layers.front().material.thermal_conductivity;
  NonlinearResult res;
  double scale = 1.0;  // k(T) / k_ref, shared by every die layer
  linalg::Vector prev;

  for (std::size_t it = 0; it < nonlinear.max_iterations; ++it) {
    StackSpec scaled = spec;
    for (ChipSpec& chip : scaled.chips) {
      for (LayerSpec& layer : chip.layers) {
        if (layer.kind == LayerSpec::Kind::kDie) {
          layer.material.thermal_conductivity *= scale;
        }
      }
    }
    PackageModel model =
        PackageModel::build(std::make_shared<const StackSpec>(std::move(scaled)));
    model.set_tile_powers(tile_powers);
    res.theta = solve_steady_state(model, nonlinear.solver);
    res.tile_temperatures = model.tile_temperatures(res.theta);
    res.iterations = it + 1;
    res.silicon_conductivity = k_ref * scale;

    if (!prev.empty()) {
      double delta = 0.0;
      for (std::size_t n = 0; n < res.theta.size(); ++n) {
        delta = std::max(delta, std::abs(res.theta[n] - prev[n]));
      }
      if (delta <= nonlinear.tol) {
        res.converged = true;
        return res;
      }
    }
    prev = res.theta;

    // Picard update: evaluate k at the mean silicon temperature.
    double t_mean = 0.0;
    std::size_t count = 0;
    for (std::size_t n = 0; n < model.node_count(); ++n) {
      if (model.network().node(n).kind == NodeKind::kSilicon) {
        t_mean += res.theta[n];
        ++count;
      }
    }
    t_mean /= double(count);
    scale = std::pow(t_mean / nonlinear.reference_temperature, nonlinear.exponent);
  }
  return res;
}

}  // namespace tfc::thermal
