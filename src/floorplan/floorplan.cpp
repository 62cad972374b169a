#include "floorplan/floorplan.h"

#include <algorithm>
#include <stdexcept>

namespace tfc::floorplan {

std::size_t FunctionalUnit::tile_count() const {
  std::size_t n = 0;
  for (const auto& r : rects) n += r.tile_count();
  return n;
}

bool FunctionalUnit::contains(Tile t) const {
  return std::any_of(rects.begin(), rects.end(),
                     [&](const TileRect& r) { return r.contains(t); });
}

Floorplan::Floorplan(std::size_t tile_rows, std::size_t tile_cols,
                     std::vector<FunctionalUnit> units)
    : rows_(tile_rows), cols_(tile_cols), units_(std::move(units)) {
  if (rows_ == 0 || cols_ == 0) {
    throw std::invalid_argument("Floorplan: grid must be non-empty");
  }
}

void Floorplan::set_unit_power(std::size_t unit_index, double watts) {
  if (watts < 0.0) throw std::invalid_argument("Floorplan::set_unit_power: negative power");
  units_.at(unit_index).peak_power = watts;
}

void Floorplan::validate() const {
  std::vector<int> owner(rows_ * cols_, -1);
  for (std::size_t u = 0; u < units_.size(); ++u) {
    const auto& unit = units_[u];
    if (unit.peak_power < 0.0) {
      throw std::invalid_argument("Floorplan: unit '" + unit.name + "' has negative power");
    }
    if (unit.rects.empty()) {
      throw std::invalid_argument("Floorplan: unit '" + unit.name + "' has no tiles");
    }
    for (const auto& r : unit.rects) {
      if (r.rows == 0 || r.cols == 0 || r.row + r.rows > rows_ || r.col + r.cols > cols_) {
        throw std::invalid_argument("Floorplan: unit '" + unit.name +
                                    "' rectangle out of grid");
      }
      for (std::size_t rr = r.row; rr < r.row + r.rows; ++rr) {
        for (std::size_t cc = r.col; cc < r.col + r.cols; ++cc) {
          int& slot = owner[rr * cols_ + cc];
          if (slot >= 0) {
            throw std::invalid_argument("Floorplan: tile overlap between '" +
                                        units_[std::size_t(slot)].name + "' and '" +
                                        unit.name + "'");
          }
          slot = int(u);
        }
      }
    }
  }
  for (std::size_t k = 0; k < owner.size(); ++k) {
    if (owner[k] < 0) {
      throw std::invalid_argument("Floorplan: uncovered tile (" +
                                  std::to_string(k / cols_) + "," +
                                  std::to_string(k % cols_) + ")");
    }
  }
}

std::optional<std::size_t> Floorplan::unit_at(Tile t) const {
  if (t.row >= rows_ || t.col >= cols_) throw std::out_of_range("Floorplan::unit_at");
  for (std::size_t u = 0; u < units_.size(); ++u) {
    if (units_[u].contains(t)) return u;
  }
  return std::nullopt;
}

const FunctionalUnit* Floorplan::find(const std::string& name) const {
  for (const auto& u : units_) {
    if (u.name == name) return &u;
  }
  return nullptr;
}

double Floorplan::total_power() const {
  double acc = 0.0;
  for (const auto& u : units_) acc += u.peak_power;
  return acc;
}

double Floorplan::area_fraction(const std::vector<std::string>& names) const {
  std::size_t tiles = 0;
  for (const auto& n : names) {
    const FunctionalUnit* u = find(n);
    if (u == nullptr) throw std::invalid_argument("Floorplan: unknown unit '" + n + "'");
    tiles += u->tile_count();
  }
  return double(tiles) / double(tile_count());
}

double Floorplan::power_fraction(const std::vector<std::string>& names) const {
  double p = 0.0;
  for (const auto& n : names) {
    const FunctionalUnit* u = find(n);
    if (u == nullptr) throw std::invalid_argument("Floorplan: unknown unit '" + n + "'");
    p += u->peak_power;
  }
  return p / total_power();
}

linalg::Vector Floorplan::tile_powers() const {
  linalg::Vector p;
  tile_powers_into(std::vector<double>(units_.size(), 1.0), p);
  return p;
}

void Floorplan::tile_powers_into(const std::vector<double>& unit_scales,
                                 linalg::Vector& out) const {
  if (unit_scales.size() != units_.size()) {
    throw std::invalid_argument("Floorplan::tile_powers_into: one scale per unit");
  }
  out.resize(tile_count());
  out.fill(0.0);
  for (std::size_t u = 0; u < units_.size(); ++u) {
    const FunctionalUnit& unit = units_[u];
    const double per_tile = unit_scales[u] * unit.peak_power / double(unit.tile_count());
    for (const auto& r : unit.rects) {
      for (std::size_t rr = r.row; rr < r.row + r.rows; ++rr) {
        for (std::size_t cc = r.col; cc < r.col + r.cols; ++cc) {
          out[rr * cols_ + cc] += per_tile;
        }
      }
    }
  }
}

double Floorplan::unit_power_density(std::size_t unit_index, double tile_area) const {
  const auto& u = units_.at(unit_index);
  return u.peak_power / (double(u.tile_count()) * tile_area);
}

}  // namespace tfc::floorplan
