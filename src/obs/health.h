/// \file health.h
/// \brief tfc::obs::health — numerical-health primitives: per-solve physics
/// certificates, tolerance policy, and a rolling HealthMonitor that turns a
/// stream of certificates into a green/degraded/red verdict.
///
/// A latency histogram cannot tell a correct solve from a silently wrong
/// one. The certificate records what correctness *means* for this library's
/// solves — the relative pencil residual ‖(G−iθD)θ−p‖/‖p‖, global energy
/// conservation (power in vs. heat rejected at the ambient boundary),
/// finite temperatures above a sanity floor, and the distance to the
/// thermal-runaway limit
/// λ_m — so a solve that drifts (stale factor, broken re-stamp, solver bug)
/// trips an auditable signal instead of shipping a wrong θ with green
/// latency metrics.
///
/// This header is deliberately physics-free: certificates are *computed* by
/// the engine layer (engine/audit.h), which owns the matrices; here live the
/// plain data types and the monitor, so the service and tools can consume
/// health state without linking the solver stack.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace tfc::obs::health {

/// Tolerance policy a certificate is judged against. Defaults are an order
/// of magnitude looser than what the direct solver achieves on the paper's
/// grids (relative residual ~1e-12..1e-11, balance closure ~1e-10), so a
/// breach means a real numerical problem, not float noise.
struct Tolerances {
  /// Max acceptable ‖(G−i·D)θ − rhs‖₂ / ‖rhs‖₂.
  double max_rel_residual = 1e-9;
  /// Max acceptable |rejected − injected| / injected power.
  double max_energy_balance_rel = 1e-7;
  /// Floor on node temperatures [K]. The package sits in 318 K ambient and
  /// every source heats, so a node below 150 K is a broken solve. There is
  /// no ceiling: near λ_m a correct steady θ grows without bound, so θ is
  /// judged by finiteness instead.
  double theta_min_k = 150.0;
  /// Max acceptable relative θ disagreement between the direct solve and the
  /// CG re-solve of the same operating point (the service's sampled
  /// cross-check).
  double max_cross_check_drift = 1e-6;
};

/// One solve's physics certificate. Fields not computed are negative
/// (ratios) or flagged, so a partially filled certificate never trips a
/// tolerance it was not measured against.
struct Certificate {
  double current_a = 0.0;
  /// ‖(G−i·D)θ − rhs‖₂ / ‖rhs‖₂; < 0 when not computed.
  double rel_residual = -1.0;
  /// |rejected − injected| / injected; < 0 when not computed.
  double energy_balance_rel = -1.0;
  /// Extremes of the node temperature vector [K].
  double theta_min_k = 0.0;
  double theta_max_k = 0.0;
  /// λ_m − i [A] when λ_m was available (cached); meaningless otherwise.
  double lambda_margin_a = 0.0;
  bool has_lambda_margin = false;
  /// Set when the solve itself reported trouble (e.g. CG ran out of
  /// iterations) — the certificate is then degraded regardless of residuals.
  bool degraded = false;

  /// True iff not degraded, every computed field is finite, and each is
  /// within \p tol.
  bool pass(const Tolerances& tol) const;

  /// Compact `key=value` summary for WARN logs and error details.
  std::string describe() const;
};

/// Aggregate health verdict.
enum class Verdict {
  kGreen,     ///< no violation and no degradation in any rolling window
  kDegraded,  ///< degraded solves observed, but no hard violation
  kRed,       ///< tolerance violation or cross-check drift in a window
};

/// Stable lower-case name ("green", "degraded", "red").
const char* verdict_name(Verdict verdict);

/// Per-scope statistics (a scope is typically one service session key).
struct ScopeStats {
  std::uint64_t samples = 0;     ///< certificates recorded (lifetime)
  std::uint64_t violations = 0;  ///< certificates that failed (lifetime)
  std::uint64_t degraded = 0;    ///< degraded certificates (lifetime)
  double worst_rel_residual = -1.0;
  double worst_energy_balance_rel = -1.0;
  std::uint64_t cross_checks = 0;
  std::uint64_t cross_check_failures = 0;
  /// Relative drift of the most recent cross-check; < 0 before the first.
  double last_cross_check_drift = -1.0;
  /// Outcomes inside the rolling window (what the verdict looks at).
  std::uint64_t window_violations = 0;
  std::uint64_t window_degraded = 0;
  std::uint64_t window_samples = 0;
};

/// Thread-safe rolling health state keyed by scope. Each scope keeps the
/// last `window` outcomes; the verdict is computed from windows only, so a
/// service that had one bad hour a week ago can return to green once the
/// window has turned over — lifetime counters keep the forensic trail.
class HealthMonitor {
 public:
  explicit HealthMonitor(Tolerances tolerances = {}, std::size_t window = 256);

  const Tolerances& tolerances() const { return tolerances_; }
  std::size_t window() const { return window_; }

  /// Record one certificate under \p scope; returns whether it passed the
  /// monitor's tolerances (false = violation recorded).
  bool record_certificate(const std::string& scope, const Certificate& cert);

  /// Record one CG cross-check under \p scope: \p drift is the relative
  /// θ disagreement; a drift beyond max_cross_check_drift is a violation.
  /// Returns whether the check passed.
  bool record_cross_check(const std::string& scope, double drift);

  /// Record a degraded-but-not-wrong event (e.g. CG non-convergence that was
  /// surfaced as an error instead of a silently bad θ).
  void record_degraded(const std::string& scope);

  /// Worst state over every scope's rolling window.
  Verdict verdict() const;

  /// Scopes currently not green (offenders for the `health` reply), sorted.
  std::vector<std::string> offending_scopes() const;

  /// Name-sorted copy of every scope's statistics.
  std::vector<std::pair<std::string, ScopeStats>> snapshot() const;

  /// Certificates recorded across all scopes (lifetime).
  std::uint64_t total_samples() const;
  /// Violations recorded across all scopes (lifetime, incl. cross-checks).
  std::uint64_t total_violations() const;

 private:
  enum class Outcome : std::uint8_t { kOk = 0, kDegraded = 1, kViolation = 2 };

  struct Scope {
    ScopeStats stats;
    std::deque<Outcome> window;
  };

  void push_outcome(Scope& scope, Outcome outcome);
  Verdict scope_verdict(const Scope& scope) const;

  Tolerances tolerances_;
  std::size_t window_;
  mutable std::mutex mutex_;
  std::map<std::string, Scope> scopes_;
};

}  // namespace tfc::obs::health
