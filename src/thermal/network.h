/// \file network.h
/// \brief Generic thermal conductance network (the electrical dual of
/// Section IV.A).
///
/// Nodes carry temperatures (voltages), conductances carry heat flow
/// (current), dissipated power enters as current sources, and the ambient is
/// a Dirichlet boundary folded into the diagonal and the right-hand side.
/// Assembly yields exactly the matrix G of Eq. (5): symmetric, off-diagonal
/// entries −g_kl, diagonal entries Σ_l g_kl including the ambient legs — an
/// irreducible positive-definite Stieltjes matrix (Lemma 1) whenever the
/// network is connected and at least one node sees the ambient.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/sparse_matrix.h"
#include "linalg/vector.h"

namespace tfc::thermal {

/// Role of a node inside the package stack (geometry bookkeeping of the
/// package builder).
enum class NodeKind {
  kSilicon,
  kTim,
  kTecCold,
  kTecHot,
  kSpreaderCenter,
  kSpreaderEdge,
  kSpreaderCorner,
  kSinkCenter,
  kSinkInnerEdge,
  kSinkInnerCorner,
  kSinkOuterEdge,
  kSinkOuterCorner,
  kOther,
};

/// Node metadata (geometry bookkeeping, not used by the solver itself).
struct NodeInfo {
  NodeKind kind = NodeKind::kOther;
  /// Tile coordinates for grid nodes (0 otherwise).
  std::size_t row = 0;
  std::size_t col = 0;
  /// Z-slab index within the layer for refined models.
  std::size_t slab = 0;
  /// Lateral area of the node's footprint [m²].
  double area = 0.0;
  /// Thermal capacitance [J/K] (transient solver).
  double capacitance = 0.0;
};

/// Mutable network under construction.
class ConductanceNetwork {
 public:
  /// One pairwise conductance (stamping order is preserved, so a network
  /// rebuilt by replaying edges() assembles a bit-identical matrix).
  struct Edge {
    std::size_t a;
    std::size_t b;
    double g;
  };

  /// Add a node; returns its index.
  std::size_t add_node(const NodeInfo& info);

  std::size_t node_count() const { return nodes_.size(); }
  const NodeInfo& node(std::size_t i) const { return nodes_.at(i); }
  const std::vector<NodeInfo>& nodes() const { return nodes_; }

  /// Couple nodes a and b with thermal conductance g > 0 [W/K].
  /// Throws std::invalid_argument for non-positive g, a == b, or bad indices.
  void add_conductance(std::size_t a, std::size_t b, double g);

  /// Add a leg from node a to the ambient Dirichlet boundary.
  void add_ambient_leg(std::size_t a, double g);

  /// Accumulate heat input [W] at node a (silicon tile power, Joule heat).
  void add_power(std::size_t a, double watts);

  /// Replace the heat input at node a.
  void set_power(std::size_t a, double watts);

  /// Total conductance from node a to ambient.
  double ambient_conductance(std::size_t a) const { return ambient_legs_.at(a); }

  /// Heat input at node a [W].
  double power(std::size_t a) const { return power_.at(a); }

  /// All pairwise conductances in stamping order.
  const std::vector<Edge>& edges() const { return edges_; }

  /// Sum of all node power inputs [W].
  double total_power() const;

  /// Assemble the Stieltjes matrix G of Eq. (5): off-diagonals −g_kl,
  /// diagonal Σ_l g_kl + g_ambient.
  linalg::SparseMatrix conductance_matrix() const;

  /// Right-hand side of G·θ = p + g_amb·θ_amb for ambient temperature
  /// \p ambient [K].
  linalg::Vector rhs(double ambient) const;

  /// Heat rejected through the ambient Dirichlet boundary at the solved
  /// temperatures \p theta: Σ_k g_amb,k·(θ_k − θ_amb) [W]. In steady state
  /// this must equal the total power injected into the network (sources +
  /// Joule + net Peltier transport) — the conservation side of the
  /// numerical-health audit. Throws std::invalid_argument on size mismatch.
  double ambient_heat_flow(const linalg::Vector& theta, double ambient) const;

  /// Node capacitance vector (transient solver).
  linalg::Vector capacitance_vector() const;

 private:
  void require_node(std::size_t a, const char* what) const;

  std::vector<NodeInfo> nodes_;
  std::vector<Edge> edges_;
  std::vector<double> ambient_legs_;  // per node
  std::vector<double> power_;        // per node
};

}  // namespace tfc::thermal
