/// \file current_optimizer.h
/// \brief Problem 2 — peak tile temperature minimization over the supply
/// current (Section V.C):  minimize max_{k∈SIL} θ_k(i)  s.t.  (G−iD)θ = p(i),
/// 0 ≤ i < λ_m.
///
/// Under Conjecture 1 the objective is convex on [0, λ_m) (Theorem 3 + the
/// Theorem 4 certificate), so the derivative dθ_k*/di of an arg-max tile k*
/// is a subgradient and its sign is monotone in i: negative left of the
/// minimizer, positive right of it, with a failed factorization (i ≥ λ_m)
/// counting as positive. The answer is the final midpoint of the dyadic
/// bisection of [0, kRunawayFraction·λ_m] on that sign down to kCurrentTol
/// (a zero slope stops it at its midpoint — the paper's Section V descent
/// with a bracket in place of a step size). search_current computes that
/// midpoint from far fewer probes, in two phases:
///
/// - *Bracket.* Probe i = 0, then take Newton steps on the hottest tile's
///   slope, using the curvature the probe returns. When the two bracket ends
///   have different hottest tiles (a kink of the max), step to the
///   intersection of their tangents instead. A Newton step aims a little
///   past its target, toward the far end, so the bracket closes from both
///   sides. A step outside the bracket, or one that moves more than half as
///   far as the step before the last, gives way to a bisection step. The
///   phase stops once the uncertain interval — from the largest
///   negative-slope probe to the smallest probe with a positive slope or no
///   factorization — is narrower than kCurrentTol/4.
/// - *Replay.* Run the bisection itself: the same midpoints, the same
///   0.5·(a+b) arithmetic and the same final midpoint. A midpoint at or left
///   of a negative-slope probe, or at or right of a positive one, is decided
///   by monotonicity without a probe; only a midpoint inside the uncertain
///   interval is probed, and the interval is too narrow to hold more than
///   one of them.
///
/// Every inferred decision is the one a probe would have returned, so the
/// current is the bisection's, bit for bit, as long as the computed slope
/// sign is monotone in i — the property the bisection relies on — and
/// vanishes at no more than one probed current. On the Table-1 golden
/// deployments that takes 5–10 probes instead of 21. Every probe is serial
/// and deterministic, so the result is bit-identical for any pool size.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>

#include "engine/solve_context.h"
#include "tec/electro_thermal.h"

namespace tfc::core {

/// The search interval is [0, kRunawayFraction · λ_m].
inline constexpr double kRunawayFraction = 0.999;
/// Absolute tolerance on the current [A].
inline constexpr double kCurrentTol = 1e-4;
/// Step budget of each search phase (bracket probes; bisection midpoints).
inline constexpr std::size_t kMaxEvaluations = 200;

/// Result of the current setting subroutine.
struct CurrentOptimum {
  double current = 0.0;                 ///< I_opt [A]
  double peak_tile_temperature = 0.0;   ///< minimized objective [K]
  double tec_input_power = 0.0;         ///< P_TEC at I_opt [W]
  /// Runaway limit (nullopt: none) — the context's sparse λ_m, so a design
  /// and any later SolveContext on the same deployment report the same bits.
  std::optional<double> lambda_m;
  /// Search probes plus the final operating-point solve.
  std::size_t objective_evaluations = 0;
  bool converged = false;
  tec::OperatingPoint operating_point;  ///< full solution at I_opt
};

/// One objective evaluation at a supply current: nullopt when G − i·D is not
/// positive definite there (SolveContext::probe_peak in production, a
/// synthetic objective in tests).
using CurrentProbe = std::function<std::optional<engine::PeakProbe>(double)>;

/// Outcome of search_current.
struct CurrentSearch {
  double current = 0.0;      ///< the bisection's final midpoint [A]
  std::size_t probes = 0;    ///< objective evaluations, both phases
  std::size_t inferred = 0;  ///< bisection midpoints decided without a probe
  bool converged = false;    ///< the bisection bracket reached kCurrentTol
};

/// The bracket-then-replay search of [0, \p end] described above: returns
/// the final midpoint of the sign bisection of [0, \p end] down to
/// kCurrentTol, probing the objective through \p probe.
CurrentSearch search_current(double end, const CurrentProbe& probe);

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
