#include "core/sensitivity.h"

#include <functional>
#include <stdexcept>

#include "engine/solve_context.h"

namespace tfc::core {

namespace {

/// Relative perturbation per parameter (two-sided).
constexpr double kRelativeStep = 0.10;

struct ProbeResult {
  double peak_celsius = 0.0;
  double lambda_m = 0.0;
  double current = 0.0;
};

ProbeResult probe(const std::shared_ptr<const thermal::StackSpec>& spec,
                  const linalg::Vector& tile_powers, const tec::TecDeviceParams& device,
                  const TileMask& deployment) {
  // Each perturbed device gets its own context (its conductances change the
  // stamped network), but every current probe inside it is workspace-pooled.
  const engine::SolveContext context(spec, deployment, tile_powers, device);
  auto opt = optimize_current(context);
  ProbeResult r;
  r.peak_celsius = thermal::to_celsius(opt.peak_tile_temperature);
  r.lambda_m = opt.lambda_m ? *opt.lambda_m : 0.0;
  r.current = opt.current;
  return r;
}

}  // namespace

std::vector<ParameterSensitivity> device_sensitivities(
    std::shared_ptr<const thermal::StackSpec> spec, const linalg::Vector& tile_powers,
    const tec::TecDeviceParams& device, const TileMask& deployment) {
  if (spec == nullptr) throw std::invalid_argument("device_sensitivities: null spec");
  if (deployment.grid_size() == 0 || deployment.empty()) {
    throw std::invalid_argument("device_sensitivities: empty deployment");
  }

  using Accessor = std::function<double&(tec::TecDeviceParams&)>;
  const std::vector<std::pair<std::string, Accessor>> params = {
      {"seebeck", [](tec::TecDeviceParams& d) -> double& { return d.seebeck; }},
      {"resistance", [](tec::TecDeviceParams& d) -> double& { return d.resistance; }},
      {"internal_conductance",
       [](tec::TecDeviceParams& d) -> double& { return d.internal_conductance; }},
      {"g_hot_contact",
       [](tec::TecDeviceParams& d) -> double& { return d.g_hot_contact; }},
      {"g_cold_contact",
       [](tec::TecDeviceParams& d) -> double& { return d.g_cold_contact; }},
  };

  std::vector<ParameterSensitivity> out;
  out.reserve(params.size());
  const double h = kRelativeStep;
  for (const auto& [name, access] : params) {
    tec::TecDeviceParams up = device;
    access(up) *= (1.0 + h);
    tec::TecDeviceParams down = device;
    access(down) *= (1.0 - h);

    const ProbeResult pu = probe(spec, tile_powers, up, deployment);
    const ProbeResult pd = probe(spec, tile_powers, down, deployment);

    ParameterSensitivity s;
    s.parameter = name;
    s.peak_per_unit_relative = (pu.peak_celsius - pd.peak_celsius) / (2.0 * h);
    s.lambda_per_unit_relative = (pu.lambda_m - pd.lambda_m) / (2.0 * h);
    s.current_per_unit_relative = (pu.current - pd.current) / (2.0 * h);
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace tfc::core
