#include "core/response.h"

namespace tfc::core {

std::optional<ResponseEvaluator> ResponseEvaluator::at(
    const tec::ElectroThermalSystem& system, double i) {
  if (i < 0.0) return std::nullopt;
  auto factor = system.factorize(i);
  if (!factor) return std::nullopt;
  return ResponseEvaluator(system, i, std::move(*factor));
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

  // ζ: silicon power plus ambient Dirichlet contribution (Joule terms
  // excluded by construction: they form the ½·r·i²·η part).
  linalg::Vector b = system_->power(0.0);
  const auto& net = system_->model().network();
  const double ambient = system_->model().ambient();
  for (std::size_t k = 0; k < n; ++k) {
    const double g = net.ambient_conductance(k);
    if (g > 0.0) b[k] += g * ambient;
  }
  s.zeta = factor_.solve(b);
  return s;
}

linalg::Vector ResponseEvaluator::theta() const {
  return factor_.solve(system_->rhs(i_));
}

linalg::Vector ResponseEvaluator::theta_derivative() const {
  linalg::Vector th = theta();
  const auto& d = system_->d_diagonal();
  linalg::Vector b(th.size());
  for (std::size_t k = 0; k < th.size(); ++k) b[k] = d[k] * th[k];
  // p′(i): d/di of the Joule halves r·i²/2 → r·i at each plate.
  const double ri = system_->device().resistance * i_;
  for (std::size_t hot : system_->model().hot_nodes()) b[hot] += ri;
  for (std::size_t cold : system_->model().cold_nodes()) b[cold] += ri;
  return factor_.solve(b);
}

}  // namespace tfc::core
