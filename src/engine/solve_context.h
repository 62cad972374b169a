/// \file solve_context.h
/// \brief tfc::engine::SolveContext — the one object behind every
/// steady-state solve in the library.
///
/// A SolveContext owns the assembled tec::ElectroThermalSystem for one
/// deployment, the shared symbolic Cholesky analysis, the cached runaway
/// limit λ_m, and a pool of preallocated solve workspaces (pencil, factor,
/// rhs/θ buffers), so the current-probe hot path of Problem 2 runs with zero
/// allocations. Deployments only ever grow during greedy deployment
/// (Figure 5), so extend() re-stamps the package network incrementally
/// (PackageModel::extend_tec) instead of re-deriving every conductance from
/// the spec — bit-identical to a from-scratch assembly, asserted in Debug.
///
/// Point solves dispatch over the runtime-selected Backend; the design/probe
/// path is pinned to the direct sparse factorization (see EngineOptions).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/tile.h"
#include "engine/backend.h"
#include "linalg/vector.h"
#include "tec/electro_thermal.h"
#include "thermal/package.h"
#include "thermal/stack_spec.h"

namespace tfc::engine {

/// Reusable solve engine for one (growing) deployment.
///
/// Thread model: probe_peak / solve_probe / solve / runaway_limit are const
/// and safe to call concurrently (service sessions, tfc::par sweeps). extend()
/// and set_deployment() mutate the context and must not race any solve.
class SolveContext {
 public:
  /// Assemble the system of \p spec for \p deployment (may be empty) with
  /// \p tile_powers installed. The mask and the powers address the spec's
  /// virtual tile grid.
  SolveContext(std::shared_ptr<const thermal::StackSpec> spec, const TileMask& deployment,
               const linalg::Vector& tile_powers, const tec::TecDeviceParams& device,
               EngineOptions options = {}, std::size_t stages = 1);

  /// The same on the single-die package StackSpec::single_die(\p geometry).
  SolveContext(const thermal::PackageGeometry& geometry, const TileMask& deployment,
               const linalg::Vector& tile_powers, const tec::TecDeviceParams& device,
               EngineOptions options = {}, std::size_t stages = 1);

  /// Adopt an already-assembled system (keeps its model, powers and the
  /// shared symbolic-analysis cache).
  explicit SolveContext(tec::ElectroThermalSystem system, EngineOptions options = {});

  const tec::ElectroThermalSystem& system() const { return system_; }
  const EngineOptions& options() const { return options_; }
  const TileMask& deployment() const { return system_.model().deployment(); }
  std::size_t device_count() const { return system_.device_count(); }

  /// The package this context assembles (never null).
  const std::shared_ptr<const thermal::StackSpec>& spec() const {
    return system_.model().spec();
  }

  /// Grow the deployment by \p tiles (tiles already deployed are ignored; a
  /// fully covered \p tiles is a no-op). The purely additive delta is
  /// re-stamped incrementally when options().incremental_restamp is on
  /// (metric engine.restamp.incremental), otherwise the model is rebuilt
  /// from the spec (engine.restamp.full). Invalidates the λ_m cache.
  void extend(const TileMask& tiles);

  /// Move to an arbitrary \p deployment: additive supersets of the current
  /// deployment go through extend(); anything else (a removed tile — not an
  /// additive delta) falls back to a full rebuild from the spec.
  void set_deployment(const TileMask& deployment);

  /// Zero-allocation positive-definiteness + peak-temperature probe at
  /// current \p i via the direct sparse refactorization: nullopt when
  /// G − i·D is not positive definite (i ≥ λ_m) or i < 0, else the peak
  /// silicon tile temperature [K] — the Problem 2 objective. When \p slope
  /// is non-null it also receives dθ_k*/di [K/A] of the lowest-index arg-max
  /// tile k*, a subgradient of the objective, from the same factor plus one
  /// triangular solve of H·(D·θ + p′).
  std::optional<double> probe_peak(double i, double* slope = nullptr) const;

  /// Full operating point via the direct sparse refactorization (the same
  /// pinned probe backend as probe_peak; workspace-pooled).
  std::optional<tec::OperatingPoint> solve_probe(double i) const;

  /// Point solve dispatched over options().backend. CG reports loss of
  /// positive definiteness through iteration breakdown (p·Ap ≤ 0) or a
  /// non-positive pencil diagonal. All backends return nullopt when G − i·D
  /// is not positive definite or i < 0. CG throws CgNonConvergedError when
  /// the iteration cap is hit on a solvable system (never a silent bad θ).
  std::optional<tec::OperatingPoint> solve(double i) const;

  /// Point solve with an explicit backend, ignoring options().backend — the
  /// service's sampled cross-check path (solve with a second backend, compare
  /// θ). Same semantics as solve().
  std::optional<tec::OperatingPoint> solve_backend(Backend backend, double i) const;

  /// Physics certificate of \p op (see engine/audit.h), recorded into the
  /// engine.audit.* metrics. Uses the *cached* runaway limit when present —
  /// never triggers the eigensolve. Safe to call concurrently.
  obs::health::Certificate audit(const tec::OperatingPoint& op) const;

  /// The cached λ_m if a runaway_limit() call already computed one;
  /// nullopt when the cache is cold (the audit's non-blocking peek).
  std::optional<double> cached_runaway_limit() const;

  /// Runaway limit λ_m of the current deployment (nullopt: none), by the
  /// sparse shift-invert Lanczos (tec::runaway_limit_ex) with its scratch
  /// drawn from the pooled workspaces. Cached; invalidated by
  /// extend()/set_deployment(). Each computation counts in
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

  tec::SolveWorkspace* acquire_workspace() const;
  void release_workspace(tec::SolveWorkspace* ws) const;

  /// Full rebuild from the spec (the non-incremental path).
  void rebuild(const TileMask& deployment);
  void invalidate_runaway_cache();

  std::optional<tec::OperatingPoint> solve_cg(double i) const;

  /// Sampled audit hook on the point-solve paths: every options().audit
  /// .sample_every-th solve gets a certificate (the counter starts at zero,
  /// so the first solve is always audited).
  void maybe_audit(const tec::OperatingPoint& op) const;

  EngineOptions options_;
  tec::ElectroThermalSystem system_;

  // Workspace pool: all_ owns, free_ lists the idle ones. The lock guards
  // list manipulation only — solves run outside it.
  mutable std::mutex ws_mutex_;
  mutable std::vector<std::unique_ptr<tec::SolveWorkspace>> ws_all_;
  mutable std::vector<tec::SolveWorkspace*> ws_free_;

  // λ_m cache (the deployment is implicit: extend() invalidates).
  // runaway_cached_ tells a computed "no finite limit" from a cold cache.
  mutable std::mutex runaway_mutex_;
  mutable bool runaway_cached_ = false;
  mutable std::optional<double> runaway_cache_;

  // Audit sampling tick (relaxed — sampling needs no ordering).
  mutable std::atomic<std::uint64_t> audit_seq_{0};
};

}  // namespace tfc::engine
