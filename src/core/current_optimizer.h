/// \file current_optimizer.h
/// \brief Problem 2 — peak tile temperature minimization over the supply
/// current (Section V.C):  minimize max_{k∈SIL} θ_k(i)  s.t.  (G−iD)θ = p(i),
/// 0 ≤ i < λ_m.
///
/// Under Conjecture 1 the objective is convex on [0, λ_m) (Theorem 3 + the
/// Theorem 4 certificate), so an iterated section search finds the global
/// optimum: every round solves kSectionProbes fixed probe currents
/// concurrently (tfc::par) and shrinks the bracket around the best probe by
/// ≈ 2/(kSectionProbes+1). The probe set depends only on the bracket —
/// never on the thread count — so the result is bit-identical for any pool
/// size.
#pragma once

#include <cstddef>
#include <optional>

#include "engine/solve_context.h"
#include "tec/electro_thermal.h"

namespace tfc::core {

/// The search interval is [0, kRunawayFraction · λ_m].
inline constexpr double kRunawayFraction = 0.999;
/// Absolute tolerance on the current [A].
inline constexpr double kCurrentTol = 1e-4;
/// Probes per round of the section search.
inline constexpr std::size_t kSectionProbes = 8;
/// Objective-evaluation budget of one search.
inline constexpr std::size_t kMaxEvaluations = 200;

/// Result of the current setting subroutine.
struct CurrentOptimum {
  double current = 0.0;                 ///< I_opt [A]
  double peak_tile_temperature = 0.0;   ///< minimized objective [K]
  double tec_input_power = 0.0;         ///< P_TEC at I_opt [W]
  /// Runaway limit (nullopt: none) — the context's sparse λ_m, so a design
  /// and any later SolveContext on the same deployment report the same bits.
  std::optional<double> lambda_m;
  std::size_t objective_evaluations = 0;
  bool converged = false;
  tec::OperatingPoint operating_point;  ///< full solution at I_opt
};

/// Solve Problem 2 for a fixed deployment. For a system without TECs the
/// optimum is trivially i = 0. Throws std::runtime_error if the passive
/// system (i = 0) cannot be solved. Every objective evaluation is a
/// zero-allocation probe through the context's workspace pool, and λ_m is
/// taken from the context's cache.
CurrentOptimum optimize_current(const engine::SolveContext& context);

/// Convenience overload: wraps \p system in a single-use engine::SolveContext
/// (copying it; the symbolic-analysis cache is shared, not recomputed).
CurrentOptimum optimize_current(const tec::ElectroThermalSystem& system);

}  // namespace tfc::core
