/// \file audit.h
/// \brief Per-solve physics certificates for the numerical-health layer.
///
/// The certificate math lives here — not in tfc::obs — because it needs the
/// assembled system: the relative pencil residual ‖(G−i·D)θ − rhs(i)‖/‖rhs‖
/// (one SpMV, no matrix copy), the global energy-balance closure
/// (tec::ElectroThermalSystem::energy_balance), θ bounds, and the margin to
/// the cached runaway limit λ_m. obs::health holds the plain data types and
/// the rolling monitor; this header turns a solved operating point into one
/// of those certificates and streams it into the engine.audit.* metrics.
#pragma once

#include <optional>

#include "obs/health.h"
#include "tec/electro_thermal.h"

namespace tfc::engine {

/// Compute the physics certificate of \p op against \p system. \p lambda_m
/// is the *cached* runaway limit when one is available — auditing must never
/// trigger the eigensolve itself. \p degraded marks a solve that
/// already reported trouble (e.g. CG hit its iteration cap); residuals are
/// still computed so the record shows how wrong the returned θ was.
obs::health::Certificate audit_point(const tec::ElectroThermalSystem& system,
                                     const tec::OperatingPoint& op,
                                     std::optional<double> lambda_m = std::nullopt,
                                     bool degraded = false);

/// Record \p cert into the engine.audit.* metrics: samples/violations
/// counters (judged against obs::health::Tolerances{}, the one audit policy
/// of the engine and the service), degraded counter, and the rel_residual /
/// energy_balance_rel histograms. Returns cert.pass().
bool record_audit_metrics(const obs::health::Certificate& cert);

}  // namespace tfc::engine
