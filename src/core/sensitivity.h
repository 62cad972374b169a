/// \file sensitivity.h
/// \brief Device-parameter sensitivity analysis (extension).
///
/// The paper fixes the device (Chowdhury et al. parameters) and optimizes
/// deployment + current. A device designer asks the converse question: which
/// physical parameter — Seebeck coefficient, electrical resistance, internal
/// conductance, contact quality — buys the most cooling at the system level?
/// This module perturbs each parameter by a relative step, re-optimizes the
/// supply current (the system adapts its operating point, so this is a
/// *design* sensitivity, not a frozen-current one), and reports the change
/// in achievable peak temperature and in the runaway limit λ_m.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/current_optimizer.h"
#include "thermal/stack_spec.h"

namespace tfc::core {

/// One row of the sensitivity table.
struct ParameterSensitivity {
  std::string parameter;
  /// d(peak °C) per +100 % of the parameter (centered difference, scaled).
  double peak_per_unit_relative = 0.0;
  /// d(λ_m) per +100 % of the parameter [A].
  double lambda_per_unit_relative = 0.0;
  /// d(I_opt) per +100 % of the parameter [A].
  double current_per_unit_relative = 0.0;
};

/// Evaluate sensitivities of the optimized design around \p device for a
/// fixed deployment on \p spec, by centered differences at ±10 % of each
/// parameter. Parameters probed: seebeck, resistance, internal_conductance,
/// g_hot_contact, g_cold_contact.
/// Throws std::invalid_argument for a null spec or an empty deployment.
std::vector<ParameterSensitivity> device_sensitivities(
    std::shared_ptr<const thermal::StackSpec> spec, const linalg::Vector& tile_powers,
    const tec::TecDeviceParams& device, const TileMask& deployment);

}  // namespace tfc::core
