#include "core/response.h"

namespace tfc::core {

std::optional<ResponseEvaluator> ResponseEvaluator::at(
    const tec::ElectroThermalSystem& system, double i) {
  tec::SolveWorkspace ws;
  if (!system.factorize_into(i, ws)) return std::nullopt;
  return ResponseEvaluator(system, i, std::move(ws.factor));
}

linalg::Vector ResponseEvaluator::h_column(std::size_t l) const {
  return factor_.inverse_column(l);
}

linalg::Vector ResponseEvaluator::eta() const {
  linalg::Vector tec_ind(system_->node_count());
  for (std::size_t hot : system_->model().hot_nodes()) tec_ind[hot] = 1.0;
  for (std::size_t cold : system_->model().cold_nodes()) tec_ind[cold] = 1.0;
  return factor_.solve(tec_ind);
}

ResponseSample ResponseEvaluator::sample() const {
  ResponseSample s;
  s.current = i_;
  const std::size_t n = system_->node_count();
  s.eta = eta();

  // η′ = H·D·H·1_TEC.
  linalg::Vector v = s.eta;
  const auto& d = system_->d_diagonal();
  for (std::size_t k = 0; k < n; ++k) v[k] *= d[k];
  s.eta_prime = factor_.solve(v);

  // ζ: silicon power plus ambient Dirichlet contribution, i.e. the RHS at
  // i = 0 (Joule terms excluded by construction: they form the ½·r·i²·η
  // part).
  s.zeta = factor_.solve(system_->rhs(0.0));
  return s;
}

linalg::Vector ResponseEvaluator::theta() const {
  return factor_.solve(system_->rhs(i_));
}

linalg::Vector ResponseEvaluator::theta_derivative() const {
  linalg::Vector b;
  system_->theta_derivative_rhs_into(i_, theta(), b);
  return factor_.solve(b);
}

}  // namespace tfc::core
