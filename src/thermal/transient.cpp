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
    : dt_(dt), capacitance_(capacitance), c_over_dt_(capacitance), g_(g) {
  validate_inputs(g, capacitance, dt);
  for (std::size_t i = 0; i < c_over_dt_.size(); ++i) c_over_dt_[i] /= dt_;
  // C/dt touches only stored diagonal entries, so A keeps G's pattern exactly
  // and one symbolic analysis serves every (dt, pencil-current) combination.
  a_ = g_.add_scaled_diagonal(c_over_dt_, 1.0);
  if (symbolic != nullptr) {
    symbolic_ = std::move(symbolic);
  } else {
    symbolic_ = std::make_shared<const linalg::SparseCholeskySymbolic>(
        linalg::SparseCholeskySymbolic::analyze(a_));
  }
  refactorize();
}

void TransientSolver::refactorize() {
  if (!symbolic_->refactorize_into(a_, factor_, refactor_scratch_)) {
    throw std::runtime_error("TransientSolver: G + C/dt not positive definite");
  }
}

void TransientSolver::set_dt(double dt) {
  if (!(dt > 0.0)) throw std::invalid_argument("TransientSolver: dt must be > 0");
  dt_ = dt;
  for (std::size_t i = 0; i < c_over_dt_.size(); ++i) c_over_dt_[i] = capacitance_[i] / dt_;
  a_.assign_add_scaled_diagonal(g_, c_over_dt_, 1.0);
  refactorize();
}

void TransientSolver::restamp(const linalg::SparseMatrix& g) {
  if (!g.square() || g.rows() != capacitance_.size()) {
    throw std::invalid_argument("TransientSolver::restamp: dimension mismatch");
  }
  g_ = g;
  a_.assign_add_scaled_diagonal(g_, c_over_dt_, 1.0);
  refactorize();
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

linalg::Vector TransientSolver::run(
    linalg::Vector theta, std::size_t num_steps,
    const std::function<linalg::Vector(std::size_t)>& rhs_at) const {
  linalg::Vector next(theta.size());
  for (std::size_t s = 0; s < num_steps; ++s) {
    step_into(theta, rhs_at(s), next);
    std::swap(theta, next);
  }
  return theta;
}

}  // namespace tfc::thermal
