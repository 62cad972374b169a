/// \file backend.h
/// \brief Runtime-selectable linear backends for the solve-engine layer.
///
/// Every steady-state solve in the library is a pencil solve
/// (G − i·D)·θ = p(i); the backends differ only in how that SPD system is
/// factored/solved. The sparse Cholesky numeric refactorization is the
/// default (and the only backend used on the design probe path, where a
/// failed factorization doubles as the λ_m positive-definiteness test); CG
/// is the alternative for point solves — matrix-free style iteration for
/// large refined grids. A dense LDLT backend existed through PR 5; audit
/// residuals showed it numerically fine but inherently O(n³) dense at
/// ~850 nodes (28.3 ms vs 1.2 ms sparse), with no grid size in the paper's
/// range where dense wins, so it was cut rather than fixed.
#pragma once

#include <cstddef>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "obs/health.h"

namespace tfc::engine {

/// Linear backend for point solves (SolveContext::solve).
enum class Backend {
  kCholesky,  ///< sparse Cholesky, shared symbolic + numeric refactorize
  kCg,        ///< Jacobi-preconditioned conjugate gradient
};

/// Stable lower-case name ("cholesky", "cg") for CLI/metrics/JSON.
const char* backend_name(Backend backend);

/// Parse a backend_name() string; nullopt for anything else.
std::optional<Backend> parse_backend(std::string_view name);

/// "cholesky|cg" — for CLI help and error messages.
const char* backend_list();

/// Thrown by the CG backend when the iteration cap is reached without
/// convergence — a first-class signal (engine.cg.nonconverged counter, a
/// degraded audit record) instead of a silently-wrong θ. The positive-
/// definiteness breakdown (p·Ap ≤ 0, i ≥ λ_m) still returns nullopt; this
/// exception means the system was solvable but CG did not get there.
class CgNonConvergedError : public std::runtime_error {
 public:
  CgNonConvergedError(std::size_t iterations, double rel_residual);

  std::size_t iterations() const { return iterations_; }
  double rel_residual() const { return rel_residual_; }

 private:
  std::size_t iterations_;
  double rel_residual_;
};

/// Numerical-health audit knobs (tfc::obs::health woven through the solve
/// paths). The audit computes a physics certificate — relative pencil
/// residual, energy-balance closure, θ bounds, runaway margin — after a
/// sampled subset of point solves and records it into engine.audit.*
/// metrics. One certificate costs one SpMV plus a few O(n) passes.
struct AuditOptions {
  bool enabled = true;
  /// Audit 1-in-N point solves (1 = every solve). Debug builds default to
  /// always-on; Release samples, keeping the probe hot path cheap. The
  /// sample counter starts at 0, so the first solve is always audited.
  std::size_t sample_every =
#ifdef NDEBUG
      16;
#else
      1;
#endif
  /// What a certificate is judged against when bumping the violation
  /// counter (callers holding a HealthMonitor judge with its own copy).
  obs::health::Tolerances tolerances;
};

/// Knobs of the solve-engine layer.
struct EngineOptions {
  /// Backend for point solves. The design/probe path (probe_peak,
  /// solve_probe, optimize_current, greedy_deploy) always uses the direct
  /// sparse Cholesky refactorization regardless: near λ_m an iterative
  /// method cannot certify loss of positive definiteness, and the direct
  /// factorization doubles as that probe — this is also what keeps
  /// `design --json` byte-identical across backends.
  Backend backend = Backend::kCholesky;
  /// CG backend: convergence ||r|| ≤ cg_rel_tol·||b|| and iteration cap.
  double cg_rel_tol = 1e-12;
  std::size_t cg_max_iterations = 20000;
  /// Additive deployment deltas re-stamp the package network incrementally
  /// (PackageModel::extend_tec) instead of rebuilding from geometry; off
  /// forces a full rebuild per extension (the pre-engine behaviour).
  bool incremental_restamp = true;
  /// Numerical-health audit sampling (see AuditOptions).
  AuditOptions audit;
};

}  // namespace tfc::engine
