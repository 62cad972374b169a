#include "linalg/cg.h"

#include <chrono>
#include <cmath>
#include <stdexcept>

#include "obs/obs.h"

namespace tfc::linalg {

namespace {

/// diag(A)⁻¹, the Jacobi preconditioner. Throws std::invalid_argument unless
/// every diagonal entry is strictly positive.
Vector inverse_diagonal(const SparseMatrix& a) {
  Vector inv_d = a.diag();
  for (std::size_t i = 0; i < inv_d.size(); ++i) {
    if (!(inv_d[i] > 0.0)) {
      throw std::invalid_argument("conjugate_gradient: nonpositive diagonal entry");
    }
    inv_d[i] = 1.0 / inv_d[i];
  }
  return inv_d;
}

CgResult conjugate_gradient_impl(const SparseMatrix& a, const Vector& b,
                                 const Vector& inv_d, std::size_t max_iterations) {
  const std::size_t n = b.size();
  const auto precondition = [&](const Vector& r, Vector& z) {
    for (std::size_t i = 0; i < n; ++i) z[i] = inv_d[i] * r[i];
  };

  CgResult res;
  res.x = Vector(n);
  Vector r = b;  // the residual of x = 0
  const double bnorm = norm2(b);
  const double target = kCgRelTol * bnorm;

  double rnorm = norm2(r);
  if (rnorm <= target || bnorm == 0.0) {
    res.converged = true;
    res.residual_norm = rnorm;
    return res;
  }

  Vector z(n);
  precondition(r, z);
  Vector p = z;
  double rz = dot(r, z);

  for (std::size_t it = 0; it < max_iterations; ++it) {
    Vector ap = a * p;
    const double pap = dot(p, ap);
    if (!(pap > 0.0)) {
      // Not SPD (or breakdown); report non-convergence.
      res.iterations = it;
      res.residual_norm = rnorm;
      res.converged = false;
      return res;
    }
    const double alpha = rz / pap;
    axpy(alpha, p, res.x);
    axpy(-alpha, ap, r);
    rnorm = norm2(r);
    res.iterations = it + 1;
    if (rnorm <= target) {
      res.converged = true;
      res.residual_norm = rnorm;
      return res;
    }
    precondition(r, z);
    const double rz_new = dot(r, z);
    const double beta = rz_new / rz;
    rz = rz_new;
    for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
  }
  res.residual_norm = rnorm;
  return res;
}

}  // namespace

CgResult conjugate_gradient(const SparseMatrix& a, const Vector& b,
                            std::size_t max_iterations) {
  if (!a.square() || a.rows() != b.size()) {
    throw std::invalid_argument("conjugate_gradient: dimension mismatch");
  }
  const Vector inv_d = inverse_diagonal(a);
  TFC_SPAN("cg_solve");
  TFC_SPAN_ATTR("n", b.size());
  const auto t0 = std::chrono::steady_clock::now();
  CgResult res = conjugate_gradient_impl(a, b, inv_d, max_iterations);
  TFC_SPAN_ATTR("iterations", res.iterations);
  TFC_SPAN_ATTR("converged", res.converged);
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();

  auto& metrics = obs::MetricsRegistry::global();
  metrics.counter("cg.solves").increment();
  metrics.histogram("cg.iterations").record(double(res.iterations));
  metrics.histogram("cg.final_residual").record(res.residual_norm);
  metrics.histogram("cg.solve_ms").record(ms);
  TFC_LOG_TRACE("cg_solve", {"n", b.size()}, {"iterations", res.iterations},
                {"residual", res.residual_norm}, {"converged", res.converged});
  if (!res.converged) {
    metrics.counter("cg.nonconverged").increment();
    TFC_LOG_WARN("cg_no_convergence",
                 {"reason", res.iterations >= max_iterations ? "max_iterations"
                                                             : "breakdown"},
                 {"iterations", res.iterations}, {"max_iterations", max_iterations},
                 {"residual", res.residual_norm}, {"n", b.size()});
  }
  return res;
}

}  // namespace tfc::linalg
