#include "obs/health.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace tfc::obs::health {

namespace {

// Enough digits to distinguish 1e-10 from 1e-11 in a WARN line without
// dumping 17 significant digits.
std::string ratio(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3e", v);
  return buf;
}

}  // namespace

bool Certificate::pass(const Tolerances& tol) const {
  if (degraded) return false;
  // Every comparison below is false for a NaN, so finiteness comes first.
  if (!std::isfinite(rel_residual) || !std::isfinite(energy_balance_rel) ||
      !std::isfinite(theta_min_k) || !std::isfinite(theta_max_k)) {
    return false;
  }
  if (has_lambda_margin && !std::isfinite(lambda_margin_a)) return false;
  if (rel_residual >= 0.0 && rel_residual > tol.max_rel_residual) return false;
  if (energy_balance_rel >= 0.0 &&
      energy_balance_rel > tol.max_energy_balance_rel) {
    return false;
  }
  if (theta_min_k < tol.theta_min_k) return false;
  if (has_lambda_margin && lambda_margin_a <= 0.0) return false;
  return true;
}

std::string Certificate::describe() const {
  std::string out = "i=" + ratio(current_a);
  out += " rel_residual=" + ratio(rel_residual);
  out += " energy_balance=" + ratio(energy_balance_rel);
  out += " theta_k=[" + ratio(theta_min_k) + "," + ratio(theta_max_k) + "]";
  if (has_lambda_margin) out += " lambda_margin_a=" + ratio(lambda_margin_a);
  if (degraded) out += " degraded=1";
  return out;
}

const char* verdict_name(Verdict verdict) {
  switch (verdict) {
    case Verdict::kGreen:
      return "green";
    case Verdict::kDegraded:
      return "degraded";
    case Verdict::kRed:
      return "red";
  }
  return "red";  // unreachable; fail safe
}

HealthMonitor::HealthMonitor(Tolerances tolerances, std::size_t window)
    : tolerances_(tolerances), window_(window == 0 ? 1 : window) {}

void HealthMonitor::push_outcome(Scope& scope, Outcome outcome) {
  scope.window.push_back(outcome);
  if (scope.window.size() > window_) scope.window.pop_front();
  scope.stats.window_samples = scope.window.size();
  scope.stats.window_violations = static_cast<std::uint64_t>(
      std::count(scope.window.begin(), scope.window.end(),
                 Outcome::kViolation));
  scope.stats.window_degraded = static_cast<std::uint64_t>(
      std::count(scope.window.begin(), scope.window.end(),
                 Outcome::kDegraded));
}

bool HealthMonitor::record_certificate(const std::string& scope_name,
                                       const Certificate& cert) {
  const bool ok = cert.pass(tolerances_);
  std::lock_guard<std::mutex> lock(mutex_);
  Scope& scope = scopes_[scope_name];
  ++scope.stats.samples;
  scope.stats.worst_rel_residual =
      std::max(scope.stats.worst_rel_residual, cert.rel_residual);
  scope.stats.worst_energy_balance_rel =
      std::max(scope.stats.worst_energy_balance_rel, cert.energy_balance_rel);
  if (!ok && !cert.degraded) {
    ++scope.stats.violations;
    push_outcome(scope, Outcome::kViolation);
  } else if (cert.degraded) {
    ++scope.stats.degraded;
    push_outcome(scope, Outcome::kDegraded);
  } else {
    push_outcome(scope, Outcome::kOk);
  }
  return ok;
}

bool HealthMonitor::record_cross_check(const std::string& scope_name,
                                       double drift) {
  const bool ok = drift >= 0.0 && drift <= tolerances_.max_cross_check_drift;
  std::lock_guard<std::mutex> lock(mutex_);
  Scope& scope = scopes_[scope_name];
  ++scope.stats.cross_checks;
  scope.stats.last_cross_check_drift = drift;
  if (!ok) {
    ++scope.stats.cross_check_failures;
    ++scope.stats.violations;
    push_outcome(scope, Outcome::kViolation);
  } else {
    push_outcome(scope, Outcome::kOk);
  }
  return ok;
}

void HealthMonitor::record_degraded(const std::string& scope_name) {
  std::lock_guard<std::mutex> lock(mutex_);
  Scope& scope = scopes_[scope_name];
  ++scope.stats.degraded;
  push_outcome(scope, Outcome::kDegraded);
}

Verdict HealthMonitor::scope_verdict(const Scope& scope) const {
  if (scope.stats.window_violations > 0) return Verdict::kRed;
  if (scope.stats.window_degraded > 0) return Verdict::kDegraded;
  return Verdict::kGreen;
}

Verdict HealthMonitor::verdict() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Verdict worst = Verdict::kGreen;
  for (const auto& [name, scope] : scopes_) {
    const Verdict v = scope_verdict(scope);
    if (static_cast<int>(v) > static_cast<int>(worst)) worst = v;
  }
  return worst;
}

std::vector<std::string> HealthMonitor::offending_scopes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  for (const auto& [name, scope] : scopes_) {
    if (scope_verdict(scope) != Verdict::kGreen) out.push_back(name);
  }
  return out;  // std::map iteration is already name-sorted
}

std::vector<std::pair<std::string, ScopeStats>> HealthMonitor::snapshot()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, ScopeStats>> out;
  out.reserve(scopes_.size());
  for (const auto& [name, scope] : scopes_) out.emplace_back(name, scope.stats);
  return out;
}

std::uint64_t HealthMonitor::total_samples() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& [name, scope] : scopes_) total += scope.stats.samples;
  return total;
}

std::uint64_t HealthMonitor::total_violations() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& [name, scope] : scopes_) total += scope.stats.violations;
  return total;
}

}  // namespace tfc::obs::health
