#include "thermal/network.h"

#include <stdexcept>
#include <string>

namespace tfc::thermal {

std::size_t ConductanceNetwork::add_node(const NodeInfo& info) {
  nodes_.push_back(info);
  ambient_legs_.push_back(0.0);
  power_.push_back(0.0);
  return nodes_.size() - 1;
}

void ConductanceNetwork::require_node(std::size_t a, const char* what) const {
  if (a >= nodes_.size()) {
    throw std::invalid_argument(std::string("ConductanceNetwork::") + what +
                                ": node index out of range");
  }
}

void ConductanceNetwork::add_conductance(std::size_t a, std::size_t b, double g) {
  require_node(a, "add_conductance");
  require_node(b, "add_conductance");
  if (a == b) throw std::invalid_argument("ConductanceNetwork: self-loop conductance");
  if (!(g > 0.0)) throw std::invalid_argument("ConductanceNetwork: conductance must be > 0");
  edges_.push_back({a, b, g});
}

void ConductanceNetwork::add_ambient_leg(std::size_t a, double g) {
  require_node(a, "add_ambient_leg");
  if (!(g > 0.0)) throw std::invalid_argument("ConductanceNetwork: ambient leg must be > 0");
  ambient_legs_[a] += g;
}

void ConductanceNetwork::add_power(std::size_t a, double watts) {
  require_node(a, "add_power");
  power_[a] += watts;
}

void ConductanceNetwork::set_power(std::size_t a, double watts) {
  require_node(a, "set_power");
  power_[a] = watts;
}

double ConductanceNetwork::total_power() const {
  double acc = 0.0;
  for (double p : power_) acc += p;
  return acc;
}

linalg::SparseMatrix ConductanceNetwork::conductance_matrix() const {
  const std::size_t n = nodes_.size();
  linalg::TripletList t(n, n);
  for (const Edge& e : edges_) {
    t.add_symmetric(e.a, e.b, -e.g);
    t.add(e.a, e.a, e.g);
    t.add(e.b, e.b, e.g);
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (ambient_legs_[i] > 0.0) t.add(i, i, ambient_legs_[i]);
  }
  return linalg::SparseMatrix::from_triplets(t);
}

linalg::Vector ConductanceNetwork::rhs(double ambient) const {
  linalg::Vector r(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    r[i] = power_[i] + ambient_legs_[i] * ambient;
  }
  return r;
}

double ConductanceNetwork::ambient_heat_flow(const linalg::Vector& theta,
                                             double ambient) const {
  if (theta.size() != nodes_.size()) {
    throw std::invalid_argument("ambient_heat_flow: theta size mismatch");
  }
  double flow = 0.0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (ambient_legs_[i] > 0.0) flow += ambient_legs_[i] * (theta[i] - ambient);
  }
  return flow;
}

linalg::Vector ConductanceNetwork::capacitance_vector() const {
  linalg::Vector c(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) c[i] = nodes_[i].capacitance;
  return c;
}

}  // namespace tfc::thermal
