#include "linalg/lanczos.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <tuple>
#include <utility>

#include "linalg/dense_matrix.h"
#include "linalg/eigen.h"
#include "linalg/lu.h"
#include "obs/obs.h"

namespace tfc::linalg {

namespace {

std::string scientific(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3e", v);
  return buf;
}

}  // namespace

LanczosShiftError::LanczosShiftError()
    : std::runtime_error("shift-invert Lanczos: G not positive definite") {}

LanczosNonConvergedError::LanczosNonConvergedError(std::size_t iterations,
                                                   double rel_residual)
    : std::runtime_error("shift-invert Lanczos did not certify the smallest positive "
                         "eigenvalue after " +
                         std::to_string(iterations) +
                         " iterations (relative residual " +
                         scientific(rel_residual) + ")"),
      iterations_(iterations),
      rel_residual_(rel_residual) {}

namespace {

/// Largest eigenvalue of the j×j symmetric tridiagonal T(alpha, beta).
double tridiagonal_max_eigenvalue(const std::vector<double>& alpha,
                                  const std::vector<double>& beta, std::size_t j) {
  DenseMatrix t(j, j);
  for (std::size_t k = 0; k < j; ++k) {
    t(k, k) = alpha[k];
    if (k + 1 < j) {
      t(k, k + 1) = beta[k + 1];
      t(k + 1, k) = beta[k + 1];
    }
  }
  return jacobi_eigenvalues(t).back();
}

/// Unit eigenvector of T(alpha, beta) for the eigenvalue closest to \p theta,
/// by two rounds of inverse iteration on the (deliberately perturbed) shifted
/// matrix. j is tiny (≤ rank(D)+1), so a dense LU is fine.
Vector tridiagonal_eigenvector(const std::vector<double>& alpha,
                               const std::vector<double>& beta, std::size_t j,
                               double theta) {
  const double scale = std::max(std::abs(theta), 1.0);
  double perturb = 1e-12 * scale;
  std::optional<LuFactor> lu;
  for (int attempt = 0; attempt < 8 && !lu; ++attempt, perturb *= 16.0) {
    DenseMatrix m(j, j);
    for (std::size_t k = 0; k < j; ++k) {
      m(k, k) = alpha[k] - (theta + perturb);
      if (k + 1 < j) {
        m(k, k + 1) = beta[k + 1];
        m(k + 1, k) = beta[k + 1];
      }
    }
    lu = LuFactor::factor(m);
  }
  Vector s(j);
  if (!lu) {
    // Pathologically singular after perturbation: fall back to e_1.
    s[0] = 1.0;
    return s;
  }
  // Deterministic, generically non-orthogonal start (power_iteration idiom).
  for (std::size_t k = 0; k < j; ++k) s[k] = 1.0 + 0.5 * std::sin(double(k + 1));
  for (int round = 0; round < 2; ++round) {
    s = lu->solve(s);
    const double n = norm2(s);
    if (n == 0.0) {
      s.fill(0.0);
      s[0] = 1.0;
      break;
    }
    s /= n;
  }
  return s;
}

/// Phase 1 stops once the top Ritz pair's residual ‖C·y − θ·y‖_G =
/// |β_{j+1}·s_j| falls to this fraction of θ: the Ritz value is then within
/// about r²/gap of ν_max, inside the near shift's margin unless the top two
/// eigenvalues nearly coincide.
constexpr double kCoarseRitzTol = 1e-5;
/// The fallback resumes the run to this stop (that of the single-phase solve).
constexpr double kRitzResidualTol = 1e-12;

/// Phase 2 factors G − (1 − kNearShiftGap)·λ̃·D.
constexpr double kNearShiftGap = 5e-9;
/// Inverse-iteration rounds with the near factor, stopping once the
/// certified residual reaches kNearResidual.
constexpr int kNearRounds = 4;
constexpr double kNearResidual = 1e-12;
/// Refinement rounds of the fallback with G's factor.
constexpr int kFallbackRounds = 3;

/// λ is certified minimal when G − σ·D factors at some σ ≥ (1 − kMinimalityMargin)·λ.
constexpr double kMinimalityMargin = 1e-8;

/// Lanczos step cap (also capped at the dimension — the exact breakdown
/// bound of a fully reorthogonalized Lanczos).
constexpr std::size_t kMaxIterations = 512;

struct IterationOutcome {
  double theta_max = 0.0;     ///< largest Ritz value of T_j (any sign)
  std::size_t steps = 0;      ///< Lanczos steps taken
  bool done = false;          ///< Krylov space exhausted or cap reached
};

void ensure_basis(ShiftInvertLanczosWorkspace& ws, std::size_t n, std::size_t count) {
  while (ws.basis.size() < count) {
    ws.basis.emplace_back();
    ws.kbasis.emplace_back();
  }
  ws.basis[count - 1].resize(n);
  ws.kbasis[count - 1].resize(n);
}

/// Starts a Lanczos run on C = G⁻¹D from v₁ ∝ G⁻¹·z: z = d⁺, the hot
/// plates' Peltier coefficients, when \p hot_plates, else z = d ∘ u₀ for a
/// deterministic sinusoid u₀. Both lie in range(D), so v₁ lies in
/// range(G⁻¹D): components outside it are invisible to C anyway, and
/// starting inside it makes the β-breakdown at rank(D) exact rather than
/// asymptotic. Returns false when z has no G-mass.
bool lanczos_start(const Vector& d, const SparseCholeskyFactor& factor,
                   ShiftInvertLanczosWorkspace& ws, std::size_t n, bool hot_plates) {
  ws.alpha.clear();
  ws.beta.assign(1, 0.0);  // beta[0] unused (1-based off-diagonals)
  ws.z.resize(n);
  ws.w.resize(n);
  ws.kw.resize(n);
  bool any = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (hot_plates) {
      ws.z[i] = d[i] > 0.0 ? d[i] : 0.0;
    } else {
      ws.z[i] = d[i] * (1.0 + 0.5 * std::sin(double(i + 1) + 0.7));
    }
    any = any || ws.z[i] != 0.0;
  }
  if (!any) return false;
  factor.solve_into(ws.z, ws.w, ws.solve_scratch);
  // ‖w‖_G² = wᵀG w = wᵀz (G·w = z by construction).
  const double b0sq = dot(ws.w, ws.z);
  if (!(b0sq > 0.0)) return false;
  const double b0 = std::sqrt(b0sq);
  ensure_basis(ws, n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    ws.basis[0][i] = ws.w[i] / b0;
    ws.kbasis[0][i] = ws.z[i] / b0;
  }
  return true;
}

/// Continues the run from step out.steps until the top Ritz pair's residual
/// falls to \p ritz_tol·θ_max, the Krylov space exhausts or the iteration
/// cap is reached (the last two set out.done). Each next basis vector is
/// stored before the convergence test, so a later call with a tighter
/// \p ritz_tol resumes exactly where this one stopped.
void lanczos_extend(const SparseMatrix& g, const Vector& d,
                    const SparseCholeskyFactor& factor, ShiftInvertLanczosWorkspace& ws,
                    std::size_t n, std::size_t cap, double ritz_tol,
                    IterationOutcome& out) {
  for (std::size_t j = out.steps; j < cap; ++j) {
    const Vector& vj = ws.basis[j];
    // w = C v_j = G⁻¹(d ∘ v_j).
    for (std::size_t i = 0; i < n; ++i) ws.z[i] = d[i] * vj[i];
    factor.solve_into(ws.z, ws.w, ws.solve_scratch);
    const double aj = dot(ws.z, vj);  // ⟨C v_j, v_j⟩_G = v_jᵀ D v_j
    ws.alpha.push_back(aj);
    axpy(-aj, vj, ws.w);
    if (j > 0) axpy(-ws.beta[j], ws.basis[j - 1], ws.w);
    // Full G-reorthogonalization, two passes ("twice is enough").
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t i = 0; i <= j; ++i) {
        const double c = dot(ws.w, ws.kbasis[i]);
        if (c == 0.0) continue;
        axpy(-c, ws.basis[i], ws.w);
      }
    }
    // The G-image of the new direction is computed, never carried by
    // recurrence: a recurred image drifts from G·w, and β = ‖w‖_G then
    // collapses early with a spurious top Ritz value.
    ws.kw.fill(0.0);
    g.multiply_add(1.0, ws.w, ws.kw);
    out.steps = j + 1;

    double tscale = 0.0;
    for (double a : ws.alpha) tscale = std::max(tscale, std::abs(a));
    for (double b : ws.beta) tscale = std::max(tscale, std::abs(b));
    const double bsq = dot(ws.w, ws.kw);
    const double bj = bsq > 0.0 ? std::sqrt(bsq) : 0.0;
    out.theta_max = tridiagonal_max_eigenvalue(ws.alpha, ws.beta, j + 1);

    // The start vector lives in range(G⁻¹D), so the Krylov space exhausts in
    // at most rank(D) steps — β collapses to roundoff and the Ritz values
    // are exact.
    if (bj <= 1e-13 * std::max(tscale, 1e-300)) {
      out.done = true;
      return;
    }
    ws.beta.push_back(bj);
    ensure_basis(ws, n, j + 2);
    for (std::size_t i = 0; i < n; ++i) {
      ws.basis[j + 1][i] = ws.w[i] / bj;
      ws.kbasis[j + 1][i] = ws.kw[i] / bj;
    }
    // Usually far earlier, the top Ritz pair converges: its residual is the
    // last component of its T_j eigenvector times β_{j+1}.
    if (out.theta_max > 0.0) {
      const Vector s = tridiagonal_eigenvector(ws.alpha, ws.beta, j + 1, out.theta_max);
      if (std::abs(bj * s[j]) <= ritz_tol * out.theta_max) return;
    }
  }
  out.done = true;
}

/// The unit Ritz vector Σ s_k·v_k of the top Ritz value into \p v; false
/// when it vanishes.
bool ritz_vector(const ShiftInvertLanczosWorkspace& ws, const IterationOutcome& out,
                 std::size_t n, Vector& v) {
  const Vector s = tridiagonal_eigenvector(ws.alpha, ws.beta, out.steps, out.theta_max);
  v = Vector(n);
  for (std::size_t k = 0; k < out.steps; ++k) axpy(s[k], ws.basis[k], v);
  const double vn = norm2(v);
  if (vn == 0.0) return false;
  v /= vn;
  return true;
}

/// Certificate of a unit candidate: the pencil Rayleigh quotient
/// λ = vᵀGv / vᵀ(d∘v) (falling back to \p hint when the D-mass of v is not
/// positive) and the explicit relative residual ‖G·v − λ·(d∘v)‖₂ / ‖G·v‖₂.
std::pair<double, double> certify(const SparseMatrix& g, const Vector& d,
                                  const Vector& v, double hint) {
  const std::size_t n = v.size();
  Vector r = g * v;
  const double gn = norm2(r);
  double dmass = 0.0;
  for (std::size_t i = 0; i < n; ++i) dmass += d[i] * v[i] * v[i];
  double lambda = hint;
  if (dmass > 0.0) {
    const double rq = dot(r, v) / dmass;
    if (rq > 0.0) lambda = rq;
  }
  for (std::size_t i = 0; i < n; ++i) r[i] -= lambda * d[i] * v[i];
  return {lambda, gn > 0.0 ? norm2(r) / gn : norm2(r)};
}

/// At most \p rounds of inverse iteration v ← F⁻¹(d∘v)/‖F⁻¹(d∘v)‖₂ while
/// the certified residual exceeds \p target. Each round contracts the
/// eigenvector error by the ratio of the factored shift's distances to λ_m
/// and to the next eigenvalue, and is kept only when it strictly lowers the
/// certified residual. Returns the solves made.
int inverse_iterate(const SparseMatrix& g, const Vector& d, const SparseCholeskyFactor& f,
                    ShiftInvertLanczosWorkspace& ws, int rounds, double target,
                    Vector& v, double& lambda, double& rel) {
  const std::size_t n = v.size();
  int solves = 0;
  for (; rel > target && solves < rounds; ++solves) {
    for (std::size_t i = 0; i < n; ++i) ws.z[i] = d[i] * v[i];
    f.solve_into(ws.z, ws.w, ws.solve_scratch);
    const double wn = norm2(ws.w);
    if (!(wn > 0.0)) return solves + 1;
    Vector cand = ws.w;
    cand /= wn;
    const auto [cand_lambda, cand_rel] = certify(g, d, cand, lambda);
    if (!(cand_rel < rel) || !(cand_lambda > 0.0)) return solves + 1;
    v = std::move(cand);
    lambda = cand_lambda;
    rel = cand_rel;
  }
  return solves;
}

}  // namespace

std::optional<ShiftInvertLanczosResult> ShiftInvertLanczos::smallest_positive(
    const SparseMatrix& g, const Vector& d, const SparseCholeskySymbolic& symbolic,
    ShiftInvertLanczosWorkspace& ws, const SparseCholeskyFactor* g_factor) {
  return smallest_positive(g, d, symbolic, ws, g_factor, kLanczosRelTol);
}

std::optional<ShiftInvertLanczosResult> ShiftInvertLanczos::smallest_positive(
    const SparseMatrix& g, const Vector& d, const SparseCholeskySymbolic& symbolic,
    ShiftInvertLanczosWorkspace& ws, const SparseCholeskyFactor* g_factor,
    double rel_tol) {
  const std::size_t n = g.rows();
  if (!g.square() || d.size() != n || symbolic.dim() != n ||
      (g_factor != nullptr && g_factor->dim() != n)) {
    throw std::invalid_argument("ShiftInvertLanczos: shape mismatch");
  }
  // With no positive direction in D, G − λD = G + λ·|D| stays positive
  // definite for every λ > 0: there is no positive eigenvalue.
  if (std::none_of(d.begin(), d.end(), [](double x) { return x > 0.0; })) {
    return std::nullopt;
  }

  TFC_SPAN("shift_invert_lanczos");
  TFC_SPAN_ATTR("n", n);
  auto& metrics = obs::MetricsRegistry::global();

  // Phase 1 runs on G's factor: the caller's when given, else its own in
  // ws.factor, which phase 2 then overwrites with the near-λ_m factor.
  const auto factor_g = [&] {
    return symbolic.refactorize_into(g, ws.factor, ws.factor_scratch);
  };
  const SparseCholeskyFactor* g_fac = g_factor != nullptr ? g_factor : &ws.factor;
  if (g_factor == nullptr && !factor_g()) throw LanczosShiftError();

  // Phase 1: a coarse top Ritz pair, started from the hot plates' response
  // G⁻¹·d⁺. A start G-orthogonal to the extremal eigenvector is a
  // measure-zero accident, but a second sweep from a sinusoid removes even
  // that failure mode.
  const std::size_t cap = std::min(kMaxIterations, n);
  IterationOutcome out;
  for (bool hot_plates : {true, false}) {
    out = {};
    if (lanczos_start(d, *g_fac, ws, n, hot_plates)) {
      lanczos_extend(g, d, *g_fac, ws, n, cap, kCoarseRitzTol, out);
    }
    if (out.theta_max > 0.0) break;
  }
  const auto record_steps = [&] {
    metrics.histogram("linalg.lanczos_iters").record(double(out.steps));
    TFC_SPAN_ATTR("iterations", out.steps);
  };
  if (!(out.theta_max > 0.0)) {
    // D has a positive direction, so a positive eigenvalue exists: the
    // sweeps failed to capture it — refuse to guess.
    record_steps();
    throw LanczosNonConvergedError(out.steps, 1.0);
  }

  // Phase 2: Ritz values of the self-adjoint C lie inside its spectrum, so
  // λ̃ = 1/θ_max ≥ λ_m. One factorization just below λ̃ drives inverse
  // iteration from the Ritz vector and, when it succeeds at a shift within
  // kMinimalityMargin of λ, is the minimality proof: positive definiteness
  // holds on an interval, [0, σ_K] here, so no positive eigenvalue lies below.
  const double ritz_lambda = 1.0 / out.theta_max;
  const double near_shift = (1.0 - kNearShiftGap) * ritz_lambda;
  Vector v;
  double lambda = ritz_lambda, rel = 1.0;
  int inverse_steps = 0;
  bool certified = false;
  if (ritz_vector(ws, out, n, v)) {
    ws.pencil.assign_add_scaled_diagonal(g, d, -near_shift);
    if (symbolic.refactorize_into(ws.pencil, ws.factor, ws.factor_scratch)) {
      std::tie(lambda, rel) = certify(g, d, v, ritz_lambda);
      inverse_steps = inverse_iterate(g, d, ws.factor, ws, kNearRounds,
                                      std::min(kNearResidual, rel_tol), v, lambda, rel);
      certified = rel <= rel_tol && near_shift >= (1.0 - kMinimalityMargin) * lambda;
    }
  }
  TFC_SPAN_ATTR("inverse_steps", inverse_steps);
  TFC_SPAN_ATTR("near_shift", certified ? 1 : 0);

  if (!certified) {
    // Fallback: the single-phase solve. Resume the run to the tight Ritz
    // stop (phase 2 may have overwritten G's factor in ws.factor), refine
    // with G's factor, then certify minimality with one more factorization.
    metrics.counter("linalg.lanczos.near_shift_fallbacks").increment();
    TFC_LOG_DEBUG("lanczos_near_shift_fallback", {"steps", out.steps},
                  {"ritz_lambda", ritz_lambda}, {"rel_residual", rel});
    if (g_fac == &ws.factor && !factor_g()) throw LanczosShiftError();
    if (!out.done) lanczos_extend(g, d, *g_fac, ws, n, cap, kRitzResidualTol, out);
  }
  record_steps();
  if (!certified) {
    if (!ritz_vector(ws, out, n, v)) throw LanczosNonConvergedError(out.steps, 1.0);
    std::tie(lambda, rel) = certify(g, d, v, 1.0 / out.theta_max);
    inverse_iterate(g, d, *g_fac, ws, kFallbackRounds, rel_tol, v, lambda, rel);
    if (!(rel <= rel_tol)) throw LanczosNonConvergedError(out.steps, rel);
    ws.pencil.assign_add_scaled_diagonal(g, d, -(1.0 - kMinimalityMargin) * lambda);
    if (!symbolic.refactorize_into(ws.pencil, ws.factor, ws.factor_scratch)) {
      throw LanczosNonConvergedError(out.steps, rel);
    }
  }

  ShiftInvertLanczosResult res;
  res.eigenvalue = lambda;
  res.eigenvector = std::move(v);
  res.iterations = out.steps;
  res.rel_residual = rel;

  TFC_SPAN_ATTR("lambda", res.eigenvalue);
  TFC_LOG_TRACE("shift_invert_lanczos", {"n", n}, {"iterations", out.steps},
                {"lambda", res.eigenvalue}, {"rel_residual", res.rel_residual},
                {"near_shift", certified});
  return res;
}

std::optional<ShiftInvertLanczosResult> ShiftInvertLanczos::smallest_positive(
    const SparseMatrix& g, const Vector& d) {
  const SparseCholeskySymbolic symbolic = SparseCholeskySymbolic::analyze(g);
  ShiftInvertLanczosWorkspace ws;
  return smallest_positive(g, d, symbolic, ws);
}

}  // namespace tfc::linalg
