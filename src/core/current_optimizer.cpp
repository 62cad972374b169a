#include "core/current_optimizer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/obs.h"

namespace tfc::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// The bracket phase stops below this width. The replay then probes at most
/// one midpoint: the midpoint of a bisection bracket wider than kCurrentTol
/// lies more than kCurrentTol/2 from both its ends, so once one midpoint
/// inside so narrow an interval is probed (and becomes a bracket end), every
/// later midpoint falls outside it.
constexpr double kBracketWidth = kCurrentTol / 4.0;
/// How far a Newton step aims past its target, toward the far bracket end.
constexpr double kNudge = kBracketWidth / 4.0;

/// The bisection's move at a midpoint.
enum class Move { kRaiseLow, kLowerHigh, kStop, kUnknown };

/// What the probes so far say about the slope's sign, which convexity makes
/// monotone in i.
struct Knowledge {
  double neg = -kInf;  ///< largest probed current with a negative slope
  double pos = kInf;   ///< smallest probed current with a positive slope or no factor
  std::optional<engine::PeakProbe> at_neg;  ///< the probe at neg
  std::optional<engine::PeakProbe> at_pos;  ///< the probe at pos (nullopt: no factor)
  std::optional<double> zero;               ///< a probed current with slope exactly 0

  void add(double i, const std::optional<engine::PeakProbe>& p) {
    if (!p || p->slope > 0.0) {
      if (i <= pos) {
        pos = i;
        at_pos = p;
      }
    } else if (p->slope < 0.0) {
      if (i >= neg) {
        neg = i;
        at_neg = p;
      }
    } else {
      zero = i;
    }
  }

  /// The move a probe at midpoint \p m would make, when the probes so far
  /// imply it. A zero slope is the minimizer, so it decides both sides.
  Move decide(double m) const {
    if (zero && m == *zero) return Move::kStop;
    if (m <= neg) return Move::kRaiseLow;
    if (m >= pos) return Move::kLowerHigh;
    if (zero) return m < *zero ? Move::kRaiseLow : Move::kLowerHigh;
    return Move::kUnknown;
  }
};

/// Newton's root of the slope from a probe at \p x0 (nullopt without
/// positive curvature).
std::optional<double> newton_root(double x0, const engine::PeakProbe& p) {
  if (!(p.curvature > 0.0)) return std::nullopt;
  const double root = x0 - p.slope / p.curvature;
  if (!std::isfinite(root)) return std::nullopt;
  return root;
}

/// The bracket phase's model step inside (lo, hi), or nullopt when no model
/// lands there.
std::optional<double> model_step(const Knowledge& k, double lo, double hi) {
  const engine::PeakProbe* left = k.at_neg ? &*k.at_neg : nullptr;
  const engine::PeakProbe* right = k.at_pos ? &*k.at_pos : nullptr;
  std::optional<double> step;
  if (left != nullptr && right != nullptr && left->tile != right->tile) {
    // A kink of the max: step to where the two ends' tangents meet, the
    // minimizer of the convex lower bound they give. The less accurate
    // tangent pulls the step toward its own end, so the steps alternate
    // sides and the bracket closes from both.
    step = (right->peak - left->peak + left->slope * lo - right->slope * hi) /
           (left->slope - right->slope);
  } else {
    // One hottest tile: Newton from the end with the shorter step (the
    // closer, better model), aimed up to kNudge past the root toward the far
    // end, so that once the root is known the next probe crosses it.
    std::optional<double> from_left = left != nullptr ? newton_root(lo, *left) : std::nullopt;
    std::optional<double> from_right =
        right != nullptr ? newton_root(hi, *right) : std::nullopt;
    if (from_left && !(*from_left > lo && *from_left < hi)) from_left.reset();
    if (from_right && !(*from_right > lo && *from_right < hi)) from_right.reset();
    if (from_left && (!from_right || *from_left - lo < hi - *from_right)) {
      step = *from_left + std::min(kNudge, 0.5 * (hi - *from_left));
    } else if (from_right) {
      step = *from_right - std::min(kNudge, 0.5 * (*from_right - lo));
    }
  }
  if (!step || !(*step > lo && *step < hi)) return std::nullopt;
  return step;
}

}  // namespace

CurrentSearch search_current(double end, const CurrentProbe& probe) {
  CurrentSearch res;
  Knowledge k;
  const auto evaluate = [&](double i) {
    k.add(i, probe(i));
    ++res.probes;
  };

  // Bracket: probe 0, then model steps, falling back to bisection of the
  // uncertain interval (lo, hi) when no model step lands inside it or one
  // would move more than half as far as the step before the last (Brent's
  // safeguard against a stalling model).
  double lo = 0.0, hi = end;
  double last = -kInf, step = kInf, step_before = kInf;
  while (!k.zero && hi - lo >= kBracketWidth && res.probes < kMaxEvaluations) {
    std::optional<double> target = 0.0;
    if (res.probes > 0) {
      target = model_step(k, lo, hi);
      if (target && std::abs(*target - last) > 0.5 * step_before) target.reset();
    }
    const double next = target.value_or(0.5 * (lo + hi));
    step_before = step;
    step = std::abs(next - last);
    last = next;
    evaluate(next);
    lo = std::max(k.neg, 0.0);
    hi = std::min(k.pos, end);
  }

  // Replay: the bisection of [0, end] on the slope's sign, probing only the
  // midpoints the bracket leaves undecided.
  double a = 0.0, b = end;
  for (std::size_t steps = 0; b - a > kCurrentTol && steps < kMaxEvaluations; ++steps) {
    const double mid = 0.5 * (a + b);
    Move move = k.decide(mid);
    if (move == Move::kUnknown) {
      evaluate(mid);
      move = k.decide(mid);
    } else {
      ++res.inferred;
    }
    if (move == Move::kRaiseLow) {
      a = mid;
    } else if (move == Move::kLowerHigh) {
      b = mid;
    } else {
      a = b = mid;  // a stationary point of the convex objective
    }
  }
  res.current = 0.5 * (a + b);
  res.converged = (b - a) <= kCurrentTol;
  return res;
}

CurrentOptimum optimize_current(const engine::SolveContext& context) {
  TFC_SPAN("optimize_current");
  auto& metrics = obs::MetricsRegistry::global();
  metrics.counter("current_opt.calls").increment();
  const tec::ElectroThermalSystem& system = context.system();
  CurrentOptimum res;

  if (system.device_count() == 0) {
    // No devices: current has no effect; report the passive solution.
    auto op = context.solve(0.0);
    if (!op) throw std::runtime_error("optimize_current: passive system not solvable");
    res.current = 0.0;
    res.converged = true;
    res.operating_point = std::move(*op);
    res.peak_tile_temperature = res.operating_point.peak_tile_temperature;
    res.tec_input_power = 0.0;
    res.objective_evaluations = 1;
    return res;
  }

  res.lambda_m = context.runaway_limit();
  // Search interval: up to just below λ_m; without a finite λ_m fall back to
  // a generous multiple of the single-device optimal pumping current.
  const double end = res.lambda_m ? kRunawayFraction * *res.lambda_m
                                  : 4.0 * system.device().max_pumping_current(
                                              system.model().ambient() + 60.0);
  const CurrentSearch search =
      search_current(end, [&](double i) { return context.probe_peak(i); });
  res.current = search.current;
  res.converged = search.converged;

  auto op = context.solve(res.current);
  if (!op) throw std::runtime_error("optimize_current: optimum not solvable");
  res.objective_evaluations = search.probes + 1;
  res.operating_point = std::move(*op);
  res.peak_tile_temperature = res.operating_point.peak_tile_temperature;
  res.tec_input_power = res.operating_point.tec_input_power;

  TFC_SPAN_ATTR("probes", search.probes);
  TFC_SPAN_ATTR("inferred", search.inferred);
  metrics.histogram("current_opt.objective_evaluations")
      .record(double(res.objective_evaluations));
  metrics.counter("current_opt.inferred_midpoints").increment(search.inferred);
  TFC_LOG_DEBUG("current_optimum", {"current_a", res.current},
                {"peak_c", thermal::to_celsius(res.peak_tile_temperature)},
                {"evaluations", res.objective_evaluations},
                {"inferred", search.inferred}, {"converged", res.converged});
  if (!res.converged) {
    TFC_LOG_WARN("current_opt_no_convergence", {"evaluations", res.objective_evaluations},
                 {"max_evaluations", kMaxEvaluations});
  }
  return res;
}

CurrentOptimum optimize_current(const tec::ElectroThermalSystem& system) {
  const engine::SolveContext context(system);
  return optimize_current(context);
}

}  // namespace tfc::core
