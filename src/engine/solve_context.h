/// \file solve_context.h
/// \brief tfc::engine::SolveContext — the one object behind every
/// steady-state solve in the library.
///
/// A SolveContext owns the assembled tec::ElectroThermalSystem for one
/// deployment, the shared symbolic Cholesky analysis, the cached runaway
/// limit λ_m, and a LIFO pool of preallocated solve workspaces (pencil,
/// factor, rhs/θ buffers), so the current-probe hot path of Problem 2 runs
/// with zero allocations. Each workspace records which factor it holds: the
/// λ_m solve factors G into its workspace, and the current search's first
/// probe (i = 0) leases that workspace back and skips the refactorization
/// (engine.factor_reused). A new deployment (one greedy pass of Figure 5) is
/// re-stamped by assembling the package from its spec
/// (tec::ElectroThermalSystem::assemble), the one way a deployment is stamped.
///
/// Every point solve is the direct sparse refactorization, whose failure
/// doubles as the λ_m positive-definiteness test. Jacobi-preconditioned CG
/// remains only as solve_cg(), the independent cross-check the service runs
/// on sampled cache hits.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/tile.h"
#include "linalg/vector.h"
#include "obs/health.h"
#include "tec/electro_thermal.h"
#include "thermal/package.h"
#include "thermal/stack_spec.h"

namespace tfc::engine {

/// Thrown by SolveContext::solve_cg when the iteration cap is reached without
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

/// One Problem 2 objective evaluation at a supply current i: the peak silicon
/// tile temperature and, for its lowest-index arg-max tile k*, the first two
/// derivatives of θ_k* in i.
struct PeakProbe {
  double peak = 0.0;       ///< θ_k* = max over tiles of θ [K]
  std::size_t tile = 0;    ///< k*, row-major on the virtual tile grid
  double slope = 0.0;      ///< dθ_k*/di [K/A], a subgradient of the objective
  double curvature = 0.0;  ///< d²θ_k*/di² [K/A²]
};

/// Reusable solve engine for one (growing) deployment.
///
/// Thread model: probe_peak / solve / solve_cg / runaway_limit are const and
/// safe to call concurrently (service sessions, tfc::par sweeps).
/// set_deployment() mutates the context and must not race any solve.
class SolveContext {
 public:
  /// solve_cg() convergence: ‖r‖ ≤ linalg::kCgRelTol·‖b‖ within
  /// kCgMaxIterations.
  static constexpr std::size_t kCgMaxIterations = 20000;
  /// Every kAuditSampleEvery-th point solve (solve, solve_cg) is audited
  /// against obs::health::Tolerances{} (see engine/audit.h): 1 in 16 in
  /// Release, keeping the probe hot path cheap; every solve in Debug. The
  /// sample counter starts at 0, so the first solve is always audited.
#ifdef NDEBUG
  static constexpr std::size_t kAuditSampleEvery = 16;
#else
  static constexpr std::size_t kAuditSampleEvery = 1;
#endif

  /// Assemble the system of \p spec for \p deployment (may be empty) with
  /// \p tile_powers installed. The mask and the powers address the spec's
  /// virtual tile grid.
  SolveContext(std::shared_ptr<const thermal::StackSpec> spec, const TileMask& deployment,
               const linalg::Vector& tile_powers, const tec::TecDeviceParams& device,
               std::size_t stages = 1);

  /// The same on the single-die package StackSpec::single_die(\p geometry).
  SolveContext(const thermal::PackageGeometry& geometry, const TileMask& deployment,
               const linalg::Vector& tile_powers, const tec::TecDeviceParams& device,
               std::size_t stages = 1);

  /// Adopt an already-assembled system (keeps its model, powers and the
  /// shared symbolic-analysis cache).
  explicit SolveContext(tec::ElectroThermalSystem system);

  const tec::ElectroThermalSystem& system() const { return system_; }
  const TileMask& deployment() const { return system_.model().deployment(); }
  std::size_t device_count() const { return system_.device_count(); }

  /// The package this context assembles (never null).
  const std::shared_ptr<const thermal::StackSpec>& spec() const {
    return system_.model().spec();
  }

  /// Move to \p deployment (an empty or default mask means no TECs):
  /// re-assemble the package from the spec with the installed tile powers
  /// (span engine_restamp, counter engine.restamps) and invalidate the λ_m
  /// cache. The current deployment itself is a no-op.
  void set_deployment(const TileMask& deployment);

  /// Zero-allocation positive-definiteness + peak-temperature probe at
  /// current \p i via the direct sparse refactorization (skipped, and counted
  /// in engine.factor_reused, when the leased workspace already holds the
  /// factor at \p i): nullopt when
  /// G − i·D is not positive definite (i ≥ λ_m) or i < 0, else the peak
  /// silicon tile temperature [K] — the Problem 2 objective — with the slope
  /// and curvature of the lowest-index arg-max tile k*. Both come from the
  /// same factor: dθ/di = H·(D·θ + p′) and d²θ/di² = H·(2D·θ′ + p″), one
  /// triangular solve each.
  std::optional<PeakProbe> probe_peak(double i) const;

  /// Full operating point via the direct sparse refactorization
  /// (workspace-pooled, with the same factor reuse as probe_peak). nullopt
  /// when G − i·D is not positive definite (i ≥ λ_m) or i < 0.
  std::optional<tec::OperatingPoint> solve(double i) const;

  /// The same operating point by Jacobi-preconditioned CG, independent of
  /// the cached symbolic analysis and pooled factors — the service's sampled
  /// cross-check. Loss of positive definiteness shows as iteration breakdown
  /// (p·Ap ≤ 0) or a non-positive pencil diagonal and returns nullopt, as does
  /// i < 0. Throws CgNonConvergedError when kCgMaxIterations is hit on a
  /// solvable system (never a silent bad θ).
  std::optional<tec::OperatingPoint> solve_cg(double i) const;

  /// Physics certificate of \p op (see engine/audit.h), recorded into the
  /// engine.audit.* metrics. Uses the *cached* runaway limit when present —
  /// never triggers the eigensolve. Safe to call concurrently.
  obs::health::Certificate audit(const tec::OperatingPoint& op) const;

  /// The cached λ_m if a runaway_limit() call already computed one;
  /// nullopt when the cache is cold (the audit's non-blocking peek).
  std::optional<double> cached_runaway_limit() const;

  /// Runaway limit λ_m of the current deployment (nullopt: none), by the
  /// sparse shift-invert Lanczos (tec::runaway_limit_ex) on the factor of G
  /// in a pooled workspace, with its scratch drawn from the same workspace.
  /// The factor stays there for a later probe or solve at i = 0. Cached;
  /// invalidated by set_deployment(). Each computation counts in
  /// engine.runaway.sparse.
  std::optional<double> runaway_limit() const;

  /// RAII lease of a pooled tec::SolveWorkspace (exposed for callers that
  /// drive ElectroThermalSystem directly, e.g. sensitivity sweeps).
  class WorkspaceLease {
   public:
    explicit WorkspaceLease(const SolveContext& ctx)
        : ctx_(&ctx), ws_(ctx.acquire_workspace()) {}
    ~WorkspaceLease() {
      if (ws_ != nullptr) ctx_->release_workspace(ws_);
    }
    WorkspaceLease(const WorkspaceLease&) = delete;
    WorkspaceLease& operator=(const WorkspaceLease&) = delete;

    tec::SolveWorkspace& operator*() const { return *ws_; }
    tec::SolveWorkspace* operator->() const { return ws_; }
    tec::SolveWorkspace* get() const { return ws_; }

   private:
    const SolveContext* ctx_;
    tec::SolveWorkspace* ws_;
  };

 private:
  friend class WorkspaceLease;
  /// Reaches the capped solve_cg below; tests use it to hit the cap without
  /// a near-singular pencil.
  friend struct SolveContextTestPeer;

  tec::SolveWorkspace* acquire_workspace() const;
  void release_workspace(tec::SolveWorkspace* ws) const;

  void invalidate_runaway_cache();

  /// solve_cg() with an explicit iteration cap.
  std::optional<tec::OperatingPoint> solve_cg(double i, std::size_t max_iterations) const;

  /// Sampled audit hook on the point-solve paths: every kAuditSampleEvery-th
  /// solve gets a certificate.
  void maybe_audit(const tec::OperatingPoint& op) const;

  tec::ElectroThermalSystem system_;

  // Workspace pool: all_ owns, free_ lists the idle ones. The lock guards
  // list manipulation only — solves run outside it.
  mutable std::mutex ws_mutex_;
  mutable std::vector<std::unique_ptr<tec::SolveWorkspace>> ws_all_;
  mutable std::vector<tec::SolveWorkspace*> ws_free_;

  // λ_m cache (the deployment is implicit: set_deployment() invalidates).
  // runaway_cached_ tells a computed "no finite limit" from a cold cache.
  mutable std::mutex runaway_mutex_;
  mutable bool runaway_cached_ = false;
  mutable std::optional<double> runaway_cache_;

  // Audit sampling tick (relaxed — sampling needs no ordering).
  mutable std::atomic<std::uint64_t> audit_seq_{0};
};

}  // namespace tfc::engine
