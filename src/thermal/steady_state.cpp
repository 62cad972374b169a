#include "thermal/steady_state.h"

#include <stdexcept>

#include "linalg/sparse_cholesky.h"
#include "obs/trace.h"

namespace tfc::thermal {

linalg::Vector solve_steady_state(const linalg::SparseMatrix& g,
                                  const linalg::Vector& rhs) {
  TFC_SPAN("steady_state_solve");
  auto f = linalg::SparseCholeskyFactor::factor(g);
  if (!f) throw std::runtime_error("solve_steady_state: matrix not positive definite");
  return f->solve(rhs);
}

linalg::Vector solve_steady_state(const PackageModel& model) {
  const auto& net = model.network();
  return solve_steady_state(net.conductance_matrix(), net.rhs(model.ambient()));
}

}  // namespace tfc::thermal
