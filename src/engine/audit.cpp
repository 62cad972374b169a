#include "engine/audit.h"

#include <cmath>

#include "linalg/vector.h"
#include "obs/obs.h"

namespace tfc::engine {

obs::health::Certificate audit_point(const tec::ElectroThermalSystem& system,
                                     const tec::OperatingPoint& op,
                                     std::optional<double> lambda_m,
                                     bool degraded) {
  obs::health::Certificate cert;
  cert.current_a = op.current;
  cert.degraded = degraded;

  // Pencil residual without materializing G − i·D: r = G·θ − i·(d∘θ) − rhs.
  const linalg::Vector rhs = system.rhs(op.current);
  linalg::Vector r = system.matrix_g() * op.theta;
  const linalg::Vector& d = system.d_diagonal();
  for (std::size_t k = 0; k < r.size(); ++k) {
    r[k] -= op.current * d[k] * op.theta[k] + rhs[k];
  }
  const double rhs_norm = linalg::norm2(rhs);
  cert.rel_residual = rhs_norm > 0.0 ? linalg::norm2(r) / rhs_norm : linalg::norm2(r);

  cert.energy_balance_rel = system.energy_balance(op.current, op.theta).relative;
  cert.theta_min_k = linalg::min_entry(op.theta);
  cert.theta_max_k = linalg::max_entry(op.theta);
  if (lambda_m.has_value()) {
    cert.lambda_margin_a = *lambda_m - op.current;
    cert.has_lambda_margin = true;
  }
  return cert;
}

bool record_audit_metrics(const obs::health::Certificate& cert) {
  auto& reg = obs::MetricsRegistry::global();
  reg.counter("engine.audit.samples").increment();
  if (cert.rel_residual >= 0.0) {
    reg.histogram("engine.audit.rel_residual").record(cert.rel_residual);
  }
  if (cert.energy_balance_rel >= 0.0) {
    reg.histogram("engine.audit.energy_balance_rel").record(cert.energy_balance_rel);
  }
  if (cert.degraded) reg.counter("engine.audit.degraded").increment();
  const bool ok = cert.pass(obs::health::Tolerances{});
  if (!ok && !cert.degraded) {
    reg.counter("engine.audit.violations").increment();
    TFC_LOG_WARN("engine_audit_violation", {"certificate", cert.describe()});
  }
  return ok;
}

}  // namespace tfc::engine
