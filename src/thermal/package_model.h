/// \file package_model.h
/// \brief Builder for the compact thermal model of a chip package
/// (Figure 3 in the paper), with optional TEC tile substitution.
///
/// The package is a declarative StackSpec: per chip, an ordered bottom-up
/// stack of die and interface layers (TIM, or TEC devices immersed in it,
/// Figure 2) on a shared copper heat spreader → heat sink → convection to
/// ambient. Each chip's footprint is discretized into its tile grid (the
/// paper's p×q grid); spreader and sink overhangs are lumped into
/// HotSpot-style peripheral macro nodes (4 edges + 4 corners each). The
/// paper's package is `StackSpec::single_die(PackageGeometry{})`.
///
/// Where a tile carries a TEC, the interface node is replaced by a hot-side
/// and a cold-side node (Section IV.B): die —g_c— cold —κ— hot —g_h— layer
/// above. Peltier terms (±α·i) and Joule heat (r·i²/2) are *not* stamped
/// here; they belong to the electro-thermal layer
/// (tec::ElectroThermalSystem), keeping this model purely a conductance
/// network.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/tile.h"
#include "linalg/vector.h"
#include "thermal/network.h"
#include "thermal/package.h"
#include "thermal/stack_spec.h"

namespace tfc::thermal {

/// Thermal-side description of one TEC device in the stack.
/// Device-level conductances [W/K] for a full 0.5 mm × 0.5 mm device.
struct TecThermalLink {
  /// Contact conductance between the silicon tile and the cold side (g_c).
  double g_cold_contact = 0.0;
  /// Internal conduction κ between cold and hot side.
  double g_internal = 0.0;
  /// Contact conductance between the hot side and the spreader (g_h).
  double g_hot_contact = 0.0;

  void validate() const;
};

/// Immutable-topology package model. Node powers remain settable (power maps
/// and Joule terms change between solves; the conductance topology does not).
class PackageModel {
 public:
  /// Assemble the network of \p spec with TECs on \p deployment, a
  /// virtual-grid mask (empty or default ⇒ none) that must stay within
  /// spec->tec_allowed_tiles(). \p tec_stages > 1 stacks that many identical
  /// stages per device electrically in series (cascade extension), coupled
  /// by inter-stage contacts (series of g_hot and g_cold); every stage gets
  /// its own hot/cold node pair. Throws std::invalid_argument on a null or
  /// invalid spec, a bad deployment, or an invalid \p link when TECs are
  /// deployed.
  static PackageModel build(std::shared_ptr<const StackSpec> spec,
                            const TileMask& deployment = TileMask(),
                            const TecThermalLink& link = TecThermalLink(),
                            std::size_t tec_stages = 1);

  /// The package this model was built from (never null).
  const std::shared_ptr<const StackSpec>& spec() const { return spec_; }
  /// Virtual tile grid (all die grids stacked vertically).
  std::size_t tile_rows() const { return tile_rows_; }
  std::size_t tile_cols() const { return tile_cols_; }
  std::size_t tile_count() const { return tile_rows_ * tile_cols_; }
  /// Ambient temperature [K].
  double ambient() const { return spec_->ambient; }
  /// Virtual-grid mask of the tiles carrying TECs.
  const TileMask& deployment() const { return deployment_; }
  std::size_t tec_stages() const { return stages_; }
  ConductanceNetwork& network() { return network_; }
  const ConductanceNetwork& network() const { return network_; }

  std::size_t node_count() const { return network_.node_count(); }

  /// Power-injection node of tile t: the mid slab of the tile's own die.
  std::size_t silicon_node(Tile t) const;

  bool has_tec(Tile t) const { return tec_cold_[tile_index(t)] != kNoNode; }
  /// Cold plate facing the silicon (stage 0's cold node).
  std::size_t tec_cold_node(Tile t) const;
  /// Hot plate facing the spreader (last stage's hot node).
  std::size_t tec_hot_node(Tile t) const;

  /// Row-major list of tiles carrying TECs.
  const std::vector<Tile>& tec_tiles() const { return tec_tile_list_; }
  /// All TEC cold-/hot-side node indices (paper's CLD / HOT sets).
  const std::vector<std::size_t>& cold_nodes() const { return cold_nodes_; }
  const std::vector<std::size_t>& hot_nodes() const { return hot_nodes_; }

  /// Install a tile power map [W per tile] on the tiles' injection nodes.
  /// Powers on other nodes are untouched. \p tile_powers is row-major of
  /// size tile_rows × tile_cols, entries ≥ 0.
  void set_tile_powers(const linalg::Vector& tile_powers);

  /// The installed tile power map (the powers on the injection nodes).
  linalg::Vector tile_powers() const;

  /// Silicon temperature per tile (injection node) from a full node
  /// temperature vector [K]; row-major tile order.
  linalg::Vector tile_temperatures(const linalg::Vector& theta) const;

  /// tile_temperatures into caller-owned storage (resized to tile_count) —
  /// zero allocations once \p out has adopted it. Identical arithmetic.
  void tile_temperatures_into(const linalg::Vector& theta, linalg::Vector& out) const;

  /// Convenience: max over tile_temperatures.
  double peak_tile_temperature(const linalg::Vector& theta) const;

 private:
  PackageModel() = default;

  static constexpr std::size_t kNoNode = static_cast<std::size_t>(-1);

  std::size_t tile_index(Tile t) const;
  /// Die band + chip-local row/col of a virtual tile.
  struct DieCell {
    std::size_t die = 0;   ///< index into dies_
    std::size_t row = 0;   ///< chip-local row
    std::size_t col = 0;
  };
  DieCell die_cell(Tile t) const;
  /// Fill tile_node_ from the die layer grids.
  void index_tiles();

  std::shared_ptr<const StackSpec> spec_;
  TileMask deployment_;
  std::size_t stages_ = 1;
  std::size_t tile_rows_ = 0;
  std::size_t tile_cols_ = 0;
  ConductanceNetwork network_;

  std::vector<StackSpec::DieRef> dies_;
  // Node-id grids in chip-local row-major cell order, indexed
  // lay_[chip][layer][slab][cell], sprg_[chip][slab][cell], snkg_[chip][cell];
  // interface cells under deployed TECs are kNoNode.
  std::vector<std::vector<std::vector<std::vector<std::size_t>>>> lay_;
  std::vector<std::vector<std::vector<std::size_t>>> sprg_;
  std::vector<std::vector<std::size_t>> snkg_;
  std::vector<std::size_t> tile_node_;  // per virtual tile: injection node
  std::vector<std::size_t> tec_cold_;   // per virtual tile, kNoNode if absent
  std::vector<std::size_t> tec_hot_;
  std::vector<Tile> tec_tile_list_;
  std::vector<std::size_t> cold_nodes_;
  std::vector<std::size_t> hot_nodes_;
};

}  // namespace tfc::thermal
