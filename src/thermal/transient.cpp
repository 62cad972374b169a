#include "thermal/transient.h"

#include <stdexcept>
#include <utility>

namespace tfc::thermal {

namespace {

void validate_inputs(const linalg::SparseMatrix& g, const linalg::Vector& capacitance,
                     double dt) {
  if (!g.square() || g.rows() != capacitance.size()) {
    throw std::invalid_argument("TransientSolver: dimension mismatch");
  }
  if (!(dt > 0.0)) throw std::invalid_argument("TransientSolver: dt must be > 0");
  for (std::size_t i = 0; i < capacitance.size(); ++i) {
    if (!(capacitance[i] > 0.0)) {
      throw std::invalid_argument("TransientSolver: capacitances must be > 0");
    }
  }
}

}  // namespace

TransientSolver::TransientSolver(
    const linalg::SparseMatrix& g, const linalg::Vector& capacitance, double dt,
    std::shared_ptr<const linalg::SparseCholeskySymbolic> symbolic)
    : dt_(dt), c_over_dt_(capacitance) {
  validate_inputs(g, capacitance, dt);
  for (std::size_t i = 0; i < c_over_dt_.size(); ++i) c_over_dt_[i] /= dt_;
  // C/dt touches only stored diagonal entries, so A keeps G's pattern exactly
  // and one symbolic analysis serves every pencil-current level.
  const linalg::SparseMatrix a = g.add_scaled_diagonal(c_over_dt_, 1.0);
  if (symbolic != nullptr) {
    symbolic_ = std::move(symbolic);
  } else {
    symbolic_ = std::make_shared<const linalg::SparseCholeskySymbolic>(
        linalg::SparseCholeskySymbolic::analyze(a));
  }
  auto factor = symbolic_->refactorize(a);
  if (!factor) {
    throw std::runtime_error("TransientSolver: G + C/dt not positive definite");
  }
  factor_ = std::move(*factor);
}

linalg::Vector TransientSolver::step(const linalg::Vector& theta,
                                     const linalg::Vector& rhs) const {
  if (theta.size() != c_over_dt_.size() || rhs.size() != c_over_dt_.size()) {
    throw std::invalid_argument("TransientSolver::step: dimension mismatch");
  }
  linalg::Vector b = rhs;
  for (std::size_t i = 0; i < b.size(); ++i) b[i] += c_over_dt_[i] * theta[i];
  return factor_.solve(b);
}

void TransientSolver::step_into(const linalg::Vector& theta, const linalg::Vector& rhs,
                                linalg::Vector& out) const {
  if (theta.size() != c_over_dt_.size() || rhs.size() != c_over_dt_.size()) {
    throw std::invalid_argument("TransientSolver::step_into: dimension mismatch");
  }
  step_b_ = rhs;
  for (std::size_t i = 0; i < step_b_.size(); ++i) step_b_[i] += c_over_dt_[i] * theta[i];
  factor_.solve_into(step_b_, out, solve_scratch_);
}

}  // namespace tfc::thermal
