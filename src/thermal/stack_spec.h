/// \file stack_spec.h
/// \brief Declarative, validated package description: ordered die/interface
/// layer stacks per chip, N chips sharing one spreader/sink, arbitrary
/// lateral tile resolution, and per-interface TEC site masks.
///
/// `StackSpec` generalizes `PackageGeometry` (one die, one TIM, the paper's
/// 12×12 grid) to the layer-configuration idiom of HotSpot's grid model:
/// every chip is an ordered bottom-up stack of alternating die and interface
/// layers ending with the interface that bonds to the shared copper
/// spreader; interface layers may carry plain TIM or be TEC-capable with an
/// optional explicit site mask. The paper's package is exactly
/// `StackSpec::single_die(PackageGeometry{})`, built by the same
/// PackageModel builder as every other stack.
///
/// Virtual tile grid: the die grids of every chip concatenate vertically
/// (chip 0's dies bottom-up, then chip 1's, ...) into one
/// `total_tile_rows() × tile_cols()` grid. Deployment masks, tile power
/// maps, and tile temperature maps across the whole stack address this
/// virtual grid, which is what lets the greedy optimizer, the transient
/// engine, and the service treat a 3-D stack like a single large chip.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/tile.h"
#include "floorplan/floorplan.h"
#include "linalg/vector.h"
#include "thermal/material.h"
#include "thermal/package.h"

namespace tfc::thermal {

/// One layer of a chip stack (bottom-up order within ChipSpec::layers).
struct LayerSpec {
  enum class Kind { kDie, kInterface };

  Kind kind = Kind::kDie;
  std::string name;
  Material material;
  double thickness = 0.0;  ///< [m]
  /// Z-discretization of this layer (>= 1).
  std::size_t slabs = 1;

  // --- die layers only -----------------------------------------------------
  /// Total die power [W], spread uniformly over the tiles when no floorplan
  /// is attached. Ignored when `floorplan` is set (its unit powers win).
  double power_w = 0.0;
  /// Optional tile-aligned floorplan for this die (per-die workload
  /// rasterization). Must match the chip's tile grid.
  std::shared_ptr<const floorplan::Floorplan> floorplan;
  /// Provenance of an imported floorplan/power trace (spec JSON round-trip).
  std::string floorplan_path;
  std::string ptrace_path;

  // --- interface layers only -----------------------------------------------
  /// True when this interface may host TEC devices in place of TIM cells.
  bool tec_capable = false;
  /// Explicit TEC sites (chip-local tiles). Empty + tec_capable = every tile
  /// of the die below is an eligible site.
  std::vector<Tile> tec_sites;
};

/// One chip: a die/interface layer stack on its own lateral tile grid,
/// mounted at (x, y) on the shared spreader.
struct ChipSpec {
  std::string name;
  double width = 0.0;   ///< [m]
  double height = 0.0;  ///< [m]
  /// Center offset from the spreader center [m].
  double x = 0.0;
  double y = 0.0;
  std::size_t tile_rows = 0;
  std::size_t tile_cols = 0;
  /// Bottom-up: die, interface, [die, interface, ...]; the last interface
  /// bonds to the spreader.
  std::vector<LayerSpec> layers;

  std::size_t die_count() const;
  double cell_pitch_x() const { return width / double(tile_cols); }
  double cell_pitch_y() const { return height / double(tile_rows); }
  double cell_area() const { return cell_pitch_x() * cell_pitch_y(); }
};

/// The full package: chips on one spreader/sink with convection to ambient.
struct StackSpec {
  std::string name = "package";
  std::vector<ChipSpec> chips;

  double spreader_side = 30e-3;
  double spreader_thickness = 1e-3;
  Material spreader_material = copper();
  std::size_t spreader_slabs = 1;

  double sink_side = 60e-3;
  double sink_thickness = 6.9e-3;
  Material sink_material = copper();

  /// Total sink-to-ambient convection resistance [K/W].
  double convection_resistance = 0.95;
  /// Ambient temperature [K].
  double ambient = to_kelvin(45.0);

  bool model_secondary_path = false;
  double c4_resistance = 20.0;
  double substrate_to_board_resistance = 5.0;
  double board_convection_resistance = 15.0;

  /// Largest virtual tile grid (total_tile_rows() × tile_cols()) a spec may
  /// describe: 2^20 tiles, about 100× the shipped 100×100 example. Every
  /// per-tile array of a package model is sized by this grid.
  static constexpr std::size_t kMaxTiles = std::size_t(1) << 20;

  /// Closed physical ranges of the numeric fields (docs/PACKAGES.md). Every
  /// value inside them assembles to a positive-definite Stieltjes G with a
  /// finite passive solution.
  /// Thicknesses, chip width/height and spreader/sink sides [m]; chip
  /// offsets x, y lie within ±kMaxLength.
  static constexpr double kMinLength = 1e-9;
  static constexpr double kMaxLength = 1.0;
  /// Material conductivity k [W/(m·K)].
  static constexpr double kMinConductivity = 1e-3;
  static constexpr double kMaxConductivity = 1e4;
  /// Material volumetric heat capacity ρ·c_p [J/(m³·K)].
  static constexpr double kMinHeatCapacity = 1e3;
  static constexpr double kMaxHeatCapacity = 1e8;
  /// Ambient temperature [K].
  static constexpr double kMinAmbient = 1.0;
  static constexpr double kMaxAmbient = 1000.0;
  /// Convection and secondary-path resistances [K/W].
  static constexpr double kMinResistance = 1e-6;
  static constexpr double kMaxResistance = 1e6;
  /// Power of one die [W]: power_w, or its floorplan's total.
  static constexpr double kMaxDiePower = 1e4;

  /// Throws std::invalid_argument with a typed "StackSpec: ..." message on
  /// any structural error (bad layer alternation, non-positive thickness,
  /// overlapping die footprints, TEC sites out of range, mismatched grids,
  /// a virtual grid over kMaxTiles, chips off the spreader, ...) and on any
  /// numeric field outside its range above (the message names the field).
  void validate() const;

  /// The single-die package described by \p geometry: one centered chip of
  /// [die, TEC-capable TIM] with single-slab layers, checked by validate()
  /// before it is returned (std::invalid_argument names the field).
  static StackSpec single_die(const PackageGeometry& geometry);

  // --- virtual tile grid ---------------------------------------------------
  /// Reference to one die layer within the virtual grid.
  struct DieRef {
    std::size_t chip = 0;        ///< index into chips
    std::size_t layer = 0;       ///< index into chips[chip].layers (a die)
    std::size_t row_offset = 0;  ///< first virtual row of this die's band
  };

  /// Every die, in virtual-grid order (chips in order, layers bottom-up).
  std::vector<DieRef> dies() const;

  std::size_t total_tile_rows() const;
  /// Shared column count (validate() enforces it across chips).
  std::size_t tile_cols() const;
  std::size_t tile_count() const { return total_tile_rows() * tile_cols(); }

  /// Virtual-grid mask of tiles whose interface above is TEC-capable
  /// (restricted to explicit tec_sites when given).
  TileMask tec_allowed_tiles() const;

  /// Worst-case tile power map on the virtual grid: per-die floorplan unit
  /// powers where attached, power_w spread uniformly otherwise.
  linalg::Vector tile_powers() const;

  /// All dies' floorplans concatenated onto the virtual grid (unit names
  /// prefixed "chip.die."); dies without a floorplan contribute one
  /// whole-die unit carrying power_w. Feeds sim::ScenarioEngine unchanged.
  floorplan::Floorplan combined_floorplan() const;
};

/// The paper's package, StackSpec::single_die(PackageGeometry{}): one shared
/// immutable instance.
std::shared_ptr<const StackSpec> paper_package();

}  // namespace tfc::thermal
