/// \file floorplan.h
/// \brief Tile-aligned floorplans: functional units, their worst-case powers,
/// and rasterization onto the silicon tile grid.
///
/// The optimizer consumes only per-tile worst-case power (Problem 1's
/// input); floorplans carry the structure needed to build those maps from
/// per-unit numbers and to report deployments against unit names.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "common/tile.h"
#include "linalg/vector.h"

namespace tfc::floorplan {

/// Axis-aligned rectangle of tiles.
struct TileRect {
  std::size_t row = 0;
  std::size_t col = 0;
  std::size_t rows = 0;
  std::size_t cols = 0;

  std::size_t tile_count() const { return rows * cols; }
  bool contains(Tile t) const {
    return t.row >= row && t.row < row + rows && t.col >= col && t.col < col + cols;
  }
};

/// One functional unit: a union of disjoint tile rectangles plus its
/// worst-case power (margin already applied).
struct FunctionalUnit {
  std::string name;
  std::vector<TileRect> rects;
  /// Worst-case power consumption [W] over the unit.
  double peak_power = 0.0;

  std::size_t tile_count() const;
  bool contains(Tile t) const;
};

/// A complete tile-aligned floorplan.
class Floorplan {
 public:
  Floorplan(std::size_t tile_rows, std::size_t tile_cols, std::vector<FunctionalUnit> units);

  std::size_t tile_rows() const { return rows_; }
  std::size_t tile_cols() const { return cols_; }
  std::size_t tile_count() const { return rows_ * cols_; }
  const std::vector<FunctionalUnit>& units() const { return units_; }

  /// Replace one unit's worst-case power (used by trace importers).
  /// Throws std::out_of_range / std::invalid_argument on bad input.
  void set_unit_power(std::size_t unit_index, double watts);

  /// Throws std::invalid_argument if units overlap, leave the grid
  /// uncovered, exceed the grid, or carry negative power.
  void validate() const;

  /// Unit index covering tile t; nullopt for uncovered tiles.
  std::optional<std::size_t> unit_at(Tile t) const;

  /// Unit lookup by name (first match).
  const FunctionalUnit* find(const std::string& name) const;

  /// Total worst-case chip power [W].
  double total_power() const;

  /// Fraction of the grid covered by the named units.
  double area_fraction(const std::vector<std::string>& names) const;

  /// Fraction of total power consumed by the named units.
  double power_fraction(const std::vector<std::string>& names) const;

  /// Worst-case power per tile [W], row-major: each unit's power is spread
  /// uniformly over its tiles (tile_powers_into with every scale 1).
  linalg::Vector tile_powers() const;

  /// Scaled power per tile [W] into \p out (resized to tile_count() and
  /// overwritten), row-major: unit u puts (unit_scales[u]·peak_power)/tiles
  /// on each of its tiles. The one per-unit rasterizer of the worst-case
  /// map, the transient per-tick map and the DTM-throttled map; no
  /// allocation once \p out has the size. Throws std::invalid_argument
  /// unless unit_scales has one entry per unit.
  void tile_powers_into(const std::vector<double>& unit_scales, linalg::Vector& out) const;

  /// Power density of a unit [W/m²] given the tile area [m²].
  double unit_power_density(std::size_t unit_index, double tile_area) const;

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<FunctionalUnit> units_;
};

}  // namespace tfc::floorplan
