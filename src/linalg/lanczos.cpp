#include "linalg/lanczos.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

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

LanczosShiftError::LanczosShiftError(double shift)
    : std::runtime_error("shift-invert Lanczos: G - sigma*D not positive definite at "
                         "sigma = " +
                         scientific(shift)),
      shift_(shift) {}

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

/// A top Ritz pair (θ, s) of T_j is converged once its Ritz residual
/// ‖C_σ·y − θ·y‖_K = |β_{j+1}·s_j| falls to this fraction of θ.
constexpr double kRitzResidualTol = 1e-12;

/// λ is certified minimal when G − (1 − kMinimalityMargin)·λ·D factors.
constexpr double kMinimalityMargin = 1e-8;

struct IterationOutcome {
  double theta_max = 0.0;     ///< largest Ritz value of T_j (any sign)
  std::size_t steps = 0;      ///< Lanczos steps taken
};

/// One Lanczos run on C_σ = K⁻¹D from the deterministic start vector seeded
/// by \p start_phase. Fills ws.basis/kbasis/alpha/beta; returns the extremal
/// Ritz value once its Ritz residual converges or the Krylov space is
/// exhausted (or at the iteration cap).
IterationOutcome lanczos_sweep(const SparseMatrix& k, const Vector& d,
                               const SparseCholeskyFactor& factor,
                               ShiftInvertLanczosWorkspace& ws, std::size_t n,
                               std::size_t max_iterations, double start_phase) {
  IterationOutcome out;
  ws.alpha.clear();
  ws.beta.clear();
  ws.beta.push_back(0.0);  // beta[0] unused (1-based off-diagonals)

  auto ensure_basis = [&](std::size_t count) {
    while (ws.basis.size() < count) {
      ws.basis.emplace_back();
      ws.kbasis.emplace_back();
    }
    ws.basis[count - 1].resize(n);
    ws.kbasis[count - 1].resize(n);
  };

  // Start vector restricted to range(K⁻¹D): v₁ ∝ K⁻¹·(d ∘ u₀). Components
  // outside that range are invisible to C_σ anyway, and starting inside it
  // makes the β-breakdown at rank(D) exact rather than asymptotic.
  ws.z.resize(n);
  ws.w.resize(n);
  ws.kw.resize(n);
  bool any = false;
  for (std::size_t i = 0; i < n; ++i) {
    const double u0 = 1.0 + 0.5 * std::sin(double(i + 1) + start_phase);
    ws.z[i] = d[i] * u0;
    any = any || ws.z[i] != 0.0;
  }
  if (!any) return out;  // D ≡ 0: no eigenvalues at all
  factor.solve_into(ws.z, ws.w, ws.solve_scratch);
  // ‖w‖_K² = wᵀK w = wᵀz (K·w = z by construction).
  const double b0sq = dot(ws.w, ws.z);
  if (!(b0sq > 0.0)) return out;
  const double b0 = std::sqrt(b0sq);
  ensure_basis(1);
  for (std::size_t i = 0; i < n; ++i) {
    ws.basis[0][i] = ws.w[i] / b0;
    ws.kbasis[0][i] = ws.z[i] / b0;
  }

  for (std::size_t j = 0; j < max_iterations; ++j) {
    const Vector& vj = ws.basis[j];
    // w = C_σ v_j = K⁻¹(d ∘ v_j).
    for (std::size_t i = 0; i < n; ++i) ws.z[i] = d[i] * vj[i];
    factor.solve_into(ws.z, ws.w, ws.solve_scratch);
    const double aj = dot(ws.z, vj);  // ⟨C v_j, v_j⟩_K = v_jᵀ D v_j
    ws.alpha.push_back(aj);
    axpy(-aj, vj, ws.w);
    if (j > 0) axpy(-ws.beta[j], ws.basis[j - 1], ws.w);
    // Full K-reorthogonalization, two passes ("twice is enough").
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t i = 0; i <= j; ++i) {
        const double c = dot(ws.w, ws.kbasis[i]);
        if (c == 0.0) continue;
        axpy(-c, ws.basis[i], ws.w);
      }
    }
    // The K-image of the new direction is computed, never carried by
    // recurrence: a recurred image drifts from K·w, and β = ‖w‖_K then
    // collapses early with a spurious top Ritz value.
    ws.kw.fill(0.0);
    k.multiply_add(1.0, ws.w, ws.kw);
    out.steps = j + 1;

    double tscale = 0.0;
    for (double a : ws.alpha) tscale = std::max(tscale, std::abs(a));
    for (double b : ws.beta) tscale = std::max(tscale, std::abs(b));
    const double bsq = dot(ws.w, ws.kw);
    const double bj = bsq > 0.0 ? std::sqrt(bsq) : 0.0;
    out.theta_max = tridiagonal_max_eigenvalue(ws.alpha, ws.beta, j + 1);

    // The start vector lives in range(K⁻¹D), so the Krylov space exhausts in
    // at most rank(D) steps — β collapses to roundoff and the Ritz values
    // are exact.
    if (bj <= 1e-13 * std::max(tscale, 1e-300)) break;
    // Usually far earlier, the top Ritz pair converges: its residual is the
    // last component of its T_j eigenvector times β_{j+1}.
    if (out.theta_max > 0.0) {
      const Vector s = tridiagonal_eigenvector(ws.alpha, ws.beta, j + 1, out.theta_max);
      if (std::abs(bj * s[j]) <= kRitzResidualTol * out.theta_max) break;
    }

    ws.beta.push_back(bj);
    ensure_basis(j + 2);
    for (std::size_t i = 0; i < n; ++i) {
      ws.basis[j + 1][i] = ws.w[i] / bj;
      ws.kbasis[j + 1][i] = ws.kw[i] / bj;
    }
  }
  return out;
}

}  // namespace

std::optional<ShiftInvertLanczosResult> ShiftInvertLanczos::smallest_positive(
    const SparseMatrix& g, const Vector& d, const SparseCholeskySymbolic& symbolic,
    ShiftInvertLanczosWorkspace& ws, const ShiftInvertLanczosOptions& opts) {
  const std::size_t n = g.rows();
  if (!g.square() || d.size() != n || symbolic.dim() != n) {
    throw std::invalid_argument("ShiftInvertLanczos: shape mismatch");
  }
  if (n == 0) return std::nullopt;

  TFC_SPAN("shift_invert_lanczos");
  TFC_SPAN_ATTR("n", n);
  auto& metrics = obs::MetricsRegistry::global();

  // Factor K = G − σD once. σ = 0 reuses G itself (no pencil copy); a shift
  // outside the PD interval re-shifts to 0 when allowed.
  double shift = opts.shift;
  bool factored = false;
  if (shift != 0.0) {
    ws.pencil.assign_add_scaled_diagonal(g, d, -shift);
    factored = symbolic.refactorize_into(ws.pencil, ws.factor, ws.factor_scratch);
    if (!factored) {
      if (!opts.allow_reshift) throw LanczosShiftError(shift);
      metrics.counter("linalg.lanczos.reshifts").increment();
      TFC_LOG_DEBUG("lanczos_reshift", {"bad_shift", shift});
      shift = 0.0;
    }
  }
  if (!factored && !symbolic.refactorize_into(g, ws.factor, ws.factor_scratch)) {
    throw LanczosShiftError(0.0);  // G itself not SPD: precondition violation
  }

  const std::size_t cap = std::min(opts.max_iterations, n);
  bool d_positive_direction = false;
  for (std::size_t i = 0; i < n; ++i) d_positive_direction |= d[i] > 0.0;

  // A start vector K-orthogonal to the extremal eigenvector is a
  // measure-zero accident, but a cheap second sweep with a different
  // deterministic phase removes even that failure mode.
  const SparseMatrix& k = factored ? ws.pencil : g;
  IterationOutcome out;
  for (double phase : {0.0, 0.7}) {
    out = lanczos_sweep(k, d, ws.factor, ws, n, cap, phase);
    if (out.steps == 0) return std::nullopt;  // D ≡ 0
    if (out.theta_max > 0.0 || !d_positive_direction) break;
  }

  metrics.histogram("linalg.lanczos_iters").record(double(out.steps));
  TFC_SPAN_ATTR("iterations", out.steps);

  if (!(out.theta_max > 0.0)) {
    // No positive Ritz value. With no positive direction in D this is the
    // exact answer (G − λD stays PD for all λ > 0); otherwise the sweep
    // failed to capture a spectrum we know exists — refuse to guess.
    if (!d_positive_direction) return std::nullopt;
    throw LanczosNonConvergedError(out.steps, 1.0);
  }

  ShiftInvertLanczosResult res;
  res.shift = shift;
  res.iterations = out.steps;

  // Ritz vector v = Σ s_k v_k, renormalized to ‖v‖₂ = 1.
  const Vector s = tridiagonal_eigenvector(ws.alpha, ws.beta, out.steps, out.theta_max);
  Vector v(n);
  for (std::size_t k = 0; k < out.steps; ++k) axpy(s[k], ws.basis[k], v);
  const double vn = norm2(v);
  if (vn == 0.0) throw LanczosNonConvergedError(out.steps, 1.0);
  v /= vn;

  // Certify a unit candidate: pencil Rayleigh quotient λ = vᵀGv / vᵀ(d∘v)
  // (falling back to \p hint when the D-mass of v is not positive), and the
  // explicit relative residual ‖G·v − λ·(d∘v)‖₂ / ‖G·v‖₂.
  auto certify = [&](const Vector& vec, double hint) {
    Vector r = g * vec;
    const double gn = norm2(r);
    double dmass = 0.0;
    for (std::size_t i = 0; i < n; ++i) dmass += d[i] * vec[i] * vec[i];
    double lambda = hint;
    if (dmass > 0.0) {
      const double rq = dot(r, vec) / dmass;
      if (rq > 0.0) lambda = rq;
    }
    for (std::size_t i = 0; i < n; ++i) r[i] -= lambda * d[i] * vec[i];
    return std::pair<double, double>(lambda, gn > 0.0 ? norm2(r) / gn : norm2(r));
  };

  auto [lambda, rel] = certify(v, shift + 1.0 / out.theta_max);
  // Bounded iterative refinement: the Ritz-residual stop can truncate the
  // basis with the certificate within a small factor of rel_tol. Each round
  // is one inverse-iteration step v ← K⁻¹(d∘v) (the factor is already in hand),
  // contracting the eigenvector error by the spectral-gap ratio; a step is
  // kept only when it strictly improves the certified residual.
  for (int round = 0; rel > opts.rel_tol && round < 3; ++round) {
    for (std::size_t i = 0; i < n; ++i) ws.z[i] = d[i] * v[i];
    ws.factor.solve_into(ws.z, ws.w, ws.solve_scratch);
    const double wn = norm2(ws.w);
    if (!(wn > 0.0)) break;
    Vector cand = ws.w;
    cand /= wn;
    const auto [cand_lambda, cand_rel] = certify(cand, lambda);
    if (!(cand_rel < rel) || !(cand_lambda > 0.0)) break;
    v = std::move(cand);
    lambda = cand_lambda;
    rel = cand_rel;
  }
  res.eigenvalue = lambda;
  res.rel_residual = rel;
  if (!(res.rel_residual <= opts.rel_tol)) {
    throw LanczosNonConvergedError(out.steps, res.rel_residual);
  }
  // The residual proves an eigenpair; minimality needs one more factor:
  // G − (1 − kMinimalityMargin)·λ·D must stay positive definite, or a smaller
  // positive eigenvalue exists that the Krylov space never resolved.
  ws.pencil.assign_add_scaled_diagonal(g, d, -(1.0 - kMinimalityMargin) * lambda);
  if (!symbolic.refactorize_into(ws.pencil, ws.factor, ws.factor_scratch)) {
    throw LanczosNonConvergedError(out.steps, res.rel_residual);
  }
  res.eigenvector = std::move(v);

  TFC_SPAN_ATTR("lambda", res.eigenvalue);
  TFC_LOG_TRACE("shift_invert_lanczos", {"n", n}, {"iterations", out.steps},
                {"shift", shift}, {"lambda", res.eigenvalue},
                {"rel_residual", res.rel_residual});
  return res;
}

std::optional<ShiftInvertLanczosResult> ShiftInvertLanczos::smallest_positive(
    const SparseMatrix& g, const Vector& d, const ShiftInvertLanczosOptions& opts) {
  const SparseCholeskySymbolic symbolic = SparseCholeskySymbolic::analyze(g);
  ShiftInvertLanczosWorkspace ws;
  return smallest_positive(g, d, symbolic, ws, opts);
}

}  // namespace tfc::linalg
