#include "thermal/steady_state.h"

#include <stdexcept>

#include "linalg/cg.h"
#include "linalg/cholesky.h"
#include "linalg/sparse_cholesky.h"
#include "obs/trace.h"

namespace tfc::thermal {

linalg::Vector solve_steady_state(const linalg::SparseMatrix& g, const linalg::Vector& rhs,
                                  const SteadyStateOptions& options) {
  TFC_SPAN("steady_state_solve");
  switch (options.backend) {
    case SolverBackend::kSparseCholesky: {
      auto f = linalg::SparseCholeskyFactor::factor(g);
      if (!f) throw std::runtime_error("solve_steady_state: matrix not positive definite");
      return f->solve(rhs);
    }
    case SolverBackend::kConjugateGradient: {
      linalg::CgOptions cg;
      cg.rel_tol = options.cg_rel_tol;
      cg.max_iterations = options.cg_max_iterations;
      auto res = linalg::conjugate_gradient(g, rhs, linalg::jacobi_preconditioner(g), cg);
      if (!res.converged) {
        throw std::runtime_error("solve_steady_state: CG failed to converge");
      }
      return std::move(res.x);
    }
    case SolverBackend::kDenseCholesky: {
      auto f = linalg::CholeskyFactor::factor(g.to_dense());
      if (!f) throw std::runtime_error("solve_steady_state: matrix not positive definite");
      return f->solve(rhs);
    }
  }
  throw std::logic_error("solve_steady_state: unknown backend");
}

linalg::Vector solve_steady_state(const PackageModel& model,
                                  const SteadyStateOptions& options) {
  const auto& net = model.network();
  return solve_steady_state(net.conductance_matrix(), net.rhs(model.ambient()),
                            options);
}

}  // namespace tfc::thermal
