#include "thermal/stack_spec.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace tfc::thermal {

namespace {

constexpr double kTinyLength = 1e-12;  // [m] geometric tolerance

std::string chip_label(const ChipSpec& chip, std::size_t index) {
  return chip.name.empty() ? "#" + std::to_string(index) : chip.name;
}

std::string layer_label(const LayerSpec& layer, std::size_t index) {
  return layer.name.empty() ? "#" + std::to_string(index) : layer.name;
}

[[noreturn]] void fail(const std::string& message) {
  throw std::invalid_argument("StackSpec: " + message);
}

/// Fails unless lo <= value <= hi (NaN fails), naming \p field.
void require_range(double value, double lo, double hi, const std::string& field,
                   const char* unit) {
  if (value >= lo && value <= hi) return;
  char range[96];
  std::snprintf(range, sizeof(range), " %g %s is outside [%g, %g] %s", value, unit, lo, hi,
                unit);
  fail(field + range);
}

void validate_material(const Material& m, const std::string& where) {
  try {
    m.validate();
  } catch (const std::invalid_argument& e) {
    fail(where + ": " + e.what());
  }
  const std::string field = where + ": material '" + m.name + "'";
  require_range(m.thermal_conductivity, StackSpec::kMinConductivity,
                StackSpec::kMaxConductivity, field + " conductivity", "W/(m K)");
  require_range(m.volumetric_heat_capacity, StackSpec::kMinHeatCapacity,
                StackSpec::kMaxHeatCapacity, field + " heat_capacity", "J/(m^3 K)");
}

void require_length(double value, const std::string& field) {
  require_range(value, StackSpec::kMinLength, StackSpec::kMaxLength, field, "m");
}

/// Chip footprint on the spreader [m]: half-open [x0, x1) × [y0, y1).
struct Rect {
  double x0, x1, y0, y1;
};

Rect footprint(const ChipSpec& chip) {
  return {chip.x - 0.5 * chip.width, chip.x + 0.5 * chip.width,
          chip.y - 0.5 * chip.height, chip.y + 0.5 * chip.height};
}

bool overlaps(const Rect& a, const Rect& b) {
  return a.x0 < b.x1 - kTinyLength && b.x0 < a.x1 - kTinyLength &&
         a.y0 < b.y1 - kTinyLength && b.y0 < a.y1 - kTinyLength;
}

}  // namespace

std::size_t ChipSpec::die_count() const {
  std::size_t n = 0;
  for (const LayerSpec& layer : layers) {
    if (layer.kind == LayerSpec::Kind::kDie) ++n;
  }
  return n;
}

void StackSpec::validate() const {
  if (chips.empty()) fail("at least one chip required");
  if (!(spreader_side > 0.0) || !(spreader_thickness > 0.0)) {
    fail("spreader dimensions must be > 0");
  }
  if (spreader_slabs == 0) fail("spreader_slabs must be >= 1");
  if (!(sink_side > 0.0) || !(sink_thickness > 0.0)) fail("sink dimensions must be > 0");
  if (sink_side + kTinyLength < spreader_side) {
    fail("sink_side must cover the spreader");
  }
  if (!(convection_resistance > 0.0)) fail("convection_resistance must be > 0");
  if (!(ambient > 0.0)) fail("ambient must be > 0 K (absolute)");
  require_length(spreader_side, "spreader side");
  require_length(spreader_thickness, "spreader thickness");
  require_length(sink_side, "sink side");
  require_length(sink_thickness, "sink thickness");
  require_range(convection_resistance, kMinResistance, kMaxResistance,
                "convection_resistance", "K/W");
  require_range(ambient, kMinAmbient, kMaxAmbient, "ambient_k", "K");
  validate_material(spreader_material, "spreader");
  validate_material(sink_material, "sink");
  if (model_secondary_path) {
    if (!(c4_resistance > 0.0) || !(substrate_to_board_resistance > 0.0) ||
        !(board_convection_resistance > 0.0)) {
      fail("secondary-path resistances must be > 0");
    }
    require_range(c4_resistance, kMinResistance, kMaxResistance, "c4_resistance", "K/W");
    require_range(substrate_to_board_resistance, kMinResistance, kMaxResistance,
                  "substrate_to_board_resistance", "K/W");
    require_range(board_convection_resistance, kMinResistance, kMaxResistance,
                  "board_convection_resistance", "K/W");
  }

  const std::size_t cols = chips.front().tile_cols;
  for (std::size_t ci = 0; ci < chips.size(); ++ci) {
    const ChipSpec& chip = chips[ci];
    const std::string cl = "chip '" + chip_label(chip, ci) + "'";
    if (!(chip.width > 0.0) || !(chip.height > 0.0)) fail(cl + ": dimensions must be > 0");
    require_length(chip.width, cl + ": width");
    require_length(chip.height, cl + ": height");
    require_range(chip.x, -kMaxLength, kMaxLength, cl + ": x", "m");
    require_range(chip.y, -kMaxLength, kMaxLength, cl + ": y", "m");
    if (chip.tile_rows == 0 || chip.tile_cols == 0) fail(cl + ": tile grid must be >= 1x1");
    if (chip.tile_cols != cols) {
      fail("all chips must share tile_cols (" + cl + " has " +
           std::to_string(chip.tile_cols) + ", expected " + std::to_string(cols) + ")");
    }
    if (chip.layers.empty()) fail(cl + ": at least one die/interface layer pair required");
    if (chip.layers.size() % 2 != 0) {
      fail(cl + ": layers must alternate die/interface bottom-up, ending with the "
                "interface that bonds to the spreader");
    }
    const Rect r = footprint(chip);
    const double half = 0.5 * spreader_side;
    if (r.x0 < -half - kTinyLength || r.x1 > half + kTinyLength ||
        r.y0 < -half - kTinyLength || r.y1 > half + kTinyLength) {
      fail(cl + ": footprint extends beyond the spreader");
    }

    for (std::size_t li = 0; li < chip.layers.size(); ++li) {
      const LayerSpec& layer = chip.layers[li];
      const std::string ll = cl + ": layer '" + layer_label(layer, li) + "'";
      const bool want_die = li % 2 == 0;
      if (want_die != (layer.kind == LayerSpec::Kind::kDie)) {
        fail(cl + ": layers must alternate die/interface bottom-up, starting with a die");
      }
      if (!(layer.thickness > 0.0)) fail(ll + ": thickness must be > 0");
      require_length(layer.thickness, ll + ": thickness");
      if (layer.slabs == 0) fail(ll + ": slabs must be >= 1");
      validate_material(layer.material, ll);
      if (layer.kind == LayerSpec::Kind::kDie) {
        if (layer.power_w < 0.0) fail(ll + ": power_w must be >= 0");
        require_range(layer.power_w, 0.0, kMaxDiePower, ll + ": power_w", "W");
        if (layer.floorplan != nullptr) {
          require_range(layer.floorplan->total_power(), 0.0, kMaxDiePower,
                        ll + ": floorplan power", "W");
        }
        if (layer.tec_capable || !layer.tec_sites.empty()) {
          fail(ll + ": TEC sites belong on interface layers, not dies");
        }
        if (layer.floorplan != nullptr &&
            (layer.floorplan->tile_rows() != chip.tile_rows ||
             layer.floorplan->tile_cols() != chip.tile_cols)) {
          fail(ll + ": floorplan grid " + std::to_string(layer.floorplan->tile_rows()) +
               "x" + std::to_string(layer.floorplan->tile_cols()) +
               " does not match the chip grid " + std::to_string(chip.tile_rows) + "x" +
               std::to_string(chip.tile_cols));
        }
      } else {
        if (layer.floorplan != nullptr) fail(ll + ": floorplans belong on die layers");
        if (layer.power_w != 0.0) fail(ll + ": interface layers carry no power");
        if (!layer.tec_sites.empty() && !layer.tec_capable) {
          fail(ll + ": tec_sites given but the interface is not tec_capable");
        }
        for (const Tile& t : layer.tec_sites) {
          if (t.row >= chip.tile_rows || t.col >= chip.tile_cols) {
            fail(ll + ": TEC site (" + std::to_string(t.row) + "," +
                 std::to_string(t.col) + ") out of range for the " +
                 std::to_string(chip.tile_rows) + "x" + std::to_string(chip.tile_cols) +
                 " grid");
          }
        }
      }
    }
  }

  // The virtual grid, counted without overflow: a wrapped product would size
  // every per-tile array of the model wrong.
  std::size_t rows = 0;
  for (const ChipSpec& chip : chips) {
    const std::size_t band = chip.die_count();
    if (chip.tile_rows > kMaxTiles / band || chip.tile_rows * band > kMaxTiles - rows) {
      rows = kMaxTiles + 1;
      break;
    }
    rows += chip.tile_rows * band;
  }
  if (rows > kMaxTiles / cols) {
    fail("virtual tile grid exceeds " + std::to_string(kMaxTiles) + " tiles");
  }

  for (std::size_t a = 0; a < chips.size(); ++a) {
    for (std::size_t b = a + 1; b < chips.size(); ++b) {
      if (overlaps(footprint(chips[a]), footprint(chips[b]))) {
        fail("chips '" + chip_label(chips[a], a) + "' and '" + chip_label(chips[b], b) +
             "': die footprints overlap");
      }
    }
  }
}

StackSpec StackSpec::single_die(const PackageGeometry& geometry) {
  StackSpec spec;
  spec.name = "single-die";

  LayerSpec die;
  die.kind = LayerSpec::Kind::kDie;
  die.name = "die";
  die.material = geometry.die_material;
  die.thickness = geometry.die_thickness;

  LayerSpec tim;
  tim.kind = LayerSpec::Kind::kInterface;
  tim.name = "tim";
  tim.material = geometry.tim_material;
  tim.thickness = geometry.tim_thickness;
  tim.tec_capable = true;

  ChipSpec chip;
  chip.name = "chip0";
  chip.width = geometry.die_width;
  chip.height = geometry.die_height;
  chip.tile_rows = geometry.tile_rows;
  chip.tile_cols = geometry.tile_cols;
  chip.layers = {std::move(die), std::move(tim)};
  spec.chips = {std::move(chip)};

  spec.spreader_side = geometry.spreader_side;
  spec.spreader_thickness = geometry.spreader_thickness;
  spec.spreader_material = geometry.spreader_material;
  spec.sink_side = geometry.sink_side;
  spec.sink_thickness = geometry.sink_thickness;
  spec.sink_material = geometry.sink_material;
  spec.convection_resistance = geometry.convection_resistance;
  spec.ambient = geometry.ambient;
  spec.model_secondary_path = geometry.model_secondary_path;
  spec.c4_resistance = geometry.c4_resistance;
  spec.substrate_to_board_resistance = geometry.substrate_to_board_resistance;
  spec.board_convection_resistance = geometry.board_convection_resistance;
  spec.validate();
  return spec;
}

std::shared_ptr<const StackSpec> paper_package() {
  static const auto spec =
      std::make_shared<const StackSpec>(StackSpec::single_die(PackageGeometry{}));
  return spec;
}

std::vector<StackSpec::DieRef> StackSpec::dies() const {
  std::vector<DieRef> out;
  std::size_t row = 0;
  for (std::size_t ci = 0; ci < chips.size(); ++ci) {
    for (std::size_t li = 0; li < chips[ci].layers.size(); ++li) {
      if (chips[ci].layers[li].kind != LayerSpec::Kind::kDie) continue;
      out.push_back({ci, li, row});
      row += chips[ci].tile_rows;
    }
  }
  return out;
}

std::size_t StackSpec::total_tile_rows() const {
  std::size_t rows = 0;
  for (const ChipSpec& chip : chips) rows += chip.tile_rows * chip.die_count();
  return rows;
}

std::size_t StackSpec::tile_cols() const {
  return chips.empty() ? 0 : chips.front().tile_cols;
}

TileMask StackSpec::tec_allowed_tiles() const {
  TileMask mask(total_tile_rows(), tile_cols());
  for (const DieRef& die : dies()) {
    const ChipSpec& chip = chips[die.chip];
    const LayerSpec& iface = chip.layers[die.layer + 1];
    if (!iface.tec_capable) continue;
    if (iface.tec_sites.empty()) {
      for (std::size_t r = 0; r < chip.tile_rows; ++r) {
        for (std::size_t c = 0; c < chip.tile_cols; ++c) {
          mask.set(die.row_offset + r, c);
        }
      }
    } else {
      for (const Tile& t : iface.tec_sites) mask.set(die.row_offset + t.row, t.col);
    }
  }
  return mask;
}

linalg::Vector StackSpec::tile_powers() const {
  const std::size_t cols = tile_cols();
  linalg::Vector powers(tile_count());
  for (const DieRef& die : dies()) {
    const ChipSpec& chip = chips[die.chip];
    const LayerSpec& layer = chip.layers[die.layer];
    if (layer.floorplan != nullptr) {
      const linalg::Vector local = layer.floorplan->tile_powers();
      for (std::size_t r = 0; r < chip.tile_rows; ++r) {
        for (std::size_t c = 0; c < chip.tile_cols; ++c) {
          powers[(die.row_offset + r) * cols + c] = local[r * chip.tile_cols + c];
        }
      }
    } else {
      const double per_tile = layer.power_w / double(chip.tile_rows * chip.tile_cols);
      for (std::size_t r = 0; r < chip.tile_rows; ++r) {
        for (std::size_t c = 0; c < chip.tile_cols; ++c) {
          powers[(die.row_offset + r) * cols + c] = per_tile;
        }
      }
    }
  }
  return powers;
}

floorplan::Floorplan StackSpec::combined_floorplan() const {
  std::vector<floorplan::FunctionalUnit> units;
  for (const DieRef& die : dies()) {
    const ChipSpec& chip = chips[die.chip];
    const LayerSpec& layer = chip.layers[die.layer];
    const std::string prefix =
        chip_label(chip, die.chip) + "." + layer_label(layer, die.layer);
    if (layer.floorplan != nullptr) {
      for (const floorplan::FunctionalUnit& unit : layer.floorplan->units()) {
        floorplan::FunctionalUnit shifted = unit;
        shifted.name = prefix + "." + unit.name;
        for (floorplan::TileRect& rect : shifted.rects) rect.row += die.row_offset;
        units.push_back(std::move(shifted));
      }
    } else {
      floorplan::FunctionalUnit whole;
      whole.name = prefix;
      whole.rects = {{die.row_offset, 0, chip.tile_rows, chip.tile_cols}};
      whole.peak_power = layer.power_w;
      units.push_back(std::move(whole));
    }
  }
  return floorplan::Floorplan(total_tile_rows(), tile_cols(), std::move(units));
}

}  // namespace tfc::thermal
