#include "io/spec_json.h"

#include <cmath>
#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "floorplan/hotspot_import.h"

namespace tfc::io {

namespace {

using thermal::ChipSpec;
using thermal::LayerSpec;
using thermal::Material;
using thermal::StackSpec;

[[noreturn]] void fail(const std::string& message) {
  throw std::invalid_argument("StackSpec JSON: " + message);
}

const std::vector<Material>& presets() {
  static const std::vector<Material> kPresets = {
      thermal::silicon(), thermal::thermal_interface(), thermal::copper(),
      thermal::aluminum()};
  return kPresets;
}

JsonValue material_to_json(const Material& m) {
  for (const Material& p : presets()) {
    if (m.name == p.name && m.thermal_conductivity == p.thermal_conductivity &&
        m.volumetric_heat_capacity == p.volumetric_heat_capacity) {
      return JsonValue::make_string(m.name);
    }
  }
  JsonValue obj = JsonValue::make_object();
  obj.set("name", JsonValue::make_string(m.name));
  obj.set("conductivity", JsonValue::make_number(m.thermal_conductivity));
  obj.set("heat_capacity", JsonValue::make_number(m.volumetric_heat_capacity));
  return obj;
}

void check_keys(const JsonValue& obj, const std::vector<std::string>& allowed,
                const std::string& where) {
  for (const auto& [key, value] : obj.members()) {
    bool ok = false;
    for (const std::string& a : allowed) {
      if (key == a) {
        ok = true;
        break;
      }
    }
    if (!ok) fail(where + ": unknown key '" + key + "'");
  }
}

const JsonValue& require(const JsonValue& obj, const std::string& key,
                         const std::string& where) {
  const JsonValue* v = obj.get(key);
  if (v == nullptr) fail(where + ": missing required key '" + key + "'");
  return *v;
}

double require_number(const JsonValue& obj, const std::string& key,
                      const std::string& where) {
  const JsonValue& v = require(obj, key, where);
  if (!v.is_number()) fail(where + ": '" + key + "' must be a number");
  return v.as_number();
}

std::size_t require_integer(const JsonValue& obj, const std::string& key,
                            const std::string& where) {
  const double d = require_number(obj, key, where);
  if (!(d >= 0.0) || d != std::floor(d) || d > 1e15) {
    fail(where + ": '" + key + "' must be a non-negative integer");
  }
  return std::size_t(d);
}

std::size_t integer_or(const JsonValue& obj, const std::string& key,
                       std::size_t fallback, const std::string& where) {
  if (!obj.has(key)) return fallback;
  return require_integer(obj, key, where);
}

Material material_from_json(const JsonValue& v, const std::string& where) {
  if (v.is_string()) {
    const std::string& name = v.as_string();
    for (const Material& p : presets()) {
      if (name == p.name) return p;
    }
    if (name == "thermal_interface") return thermal::thermal_interface();
    fail(where + ": unknown material '" + name +
         "' (presets: silicon, TIM, copper, aluminum; or give an inline object)");
  }
  if (!v.is_object()) fail(where + ": material must be a preset name or an object");
  check_keys(v, {"name", "conductivity", "heat_capacity"}, where + ": material");
  Material m;
  m.name = v.string_or("name", "custom");
  m.thermal_conductivity = require_number(v, "conductivity", where + ": material");
  m.volumetric_heat_capacity = require_number(v, "heat_capacity", where + ": material");
  return m;
}

LayerSpec layer_from_json(const JsonValue& v, const std::string& where) {
  if (!v.is_object()) fail(where + ": layer must be an object");
  check_keys(v,
             {"kind", "name", "material", "thickness", "slabs", "power_w", "floorplan",
              "ptrace", "tec_capable", "tec_sites"},
             where);
  LayerSpec layer;
  const std::string kind = require(v, "kind", where).as_string();
  if (kind == "die") {
    layer.kind = LayerSpec::Kind::kDie;
  } else if (kind == "interface") {
    layer.kind = LayerSpec::Kind::kInterface;
  } else {
    fail(where + ": kind must be \"die\" or \"interface\", got \"" + kind + "\"");
  }
  layer.name = v.string_or("name", "");
  layer.material = material_from_json(require(v, "material", where), where);
  layer.thickness = require_number(v, "thickness", where);
  layer.slabs = integer_or(v, "slabs", 1, where);
  layer.power_w = v.number_or("power_w", 0.0);
  layer.floorplan_path = v.string_or("floorplan", "");
  layer.ptrace_path = v.string_or("ptrace", "");
  layer.tec_capable = v.bool_or("tec_capable", false);
  if (const JsonValue* sites = v.get("tec_sites")) {
    if (!sites->is_array()) fail(where + ": tec_sites must be an array of [row, col]");
    for (const JsonValue& site : sites->as_array()) {
      if (!site.is_array() || site.as_array().size() != 2 ||
          !site.as_array()[0].is_number() || !site.as_array()[1].is_number()) {
        fail(where + ": tec_sites entries must be [row, col] pairs");
      }
      const double r = site.as_array()[0].as_number();
      const double c = site.as_array()[1].as_number();
      if (r < 0.0 || c < 0.0 || r != std::floor(r) || c != std::floor(c)) {
        fail(where + ": tec_sites entries must be non-negative integers");
      }
      layer.tec_sites.push_back({std::size_t(r), std::size_t(c)});
    }
  }
  return layer;
}

ChipSpec chip_from_json(const JsonValue& v, std::size_t index) {
  const std::string where =
      "chip '" + (v.is_object() ? v.string_or("name", "#" + std::to_string(index))
                                : "#" + std::to_string(index)) +
      "'";
  if (!v.is_object()) fail(where + ": chip must be an object");
  check_keys(v, {"name", "width", "height", "x", "y", "tile_rows", "tile_cols", "layers"},
             where);
  ChipSpec chip;
  chip.name = v.string_or("name", "");
  chip.width = require_number(v, "width", where);
  chip.height = require_number(v, "height", where);
  chip.x = v.number_or("x", 0.0);
  chip.y = v.number_or("y", 0.0);
  chip.tile_rows = require_integer(v, "tile_rows", where);
  chip.tile_cols = require_integer(v, "tile_cols", where);
  const JsonValue& layers = require(v, "layers", where);
  if (!layers.is_array() || layers.as_array().empty()) {
    fail(where + ": layers must be a non-empty array");
  }
  for (std::size_t li = 0; li < layers.as_array().size(); ++li) {
    chip.layers.push_back(layer_from_json(
        layers.as_array()[li], where + ": layer #" + std::to_string(li)));
  }
  return chip;
}

std::string directory_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash + 1);
}

std::string resolve(const std::string& dir, const std::string& path) {
  if (path.empty() || path.front() == '/') return path;
  return dir + path;
}

}  // namespace

JsonValue spec_to_json(const StackSpec& spec) {
  JsonValue doc = JsonValue::make_object();
  doc.set("name", JsonValue::make_string(spec.name));

  JsonValue chips = JsonValue::make_array();
  for (const ChipSpec& chip : spec.chips) {
    JsonValue c = JsonValue::make_object();
    c.set("name", JsonValue::make_string(chip.name));
    c.set("width", JsonValue::make_number(chip.width));
    c.set("height", JsonValue::make_number(chip.height));
    c.set("x", JsonValue::make_number(chip.x));
    c.set("y", JsonValue::make_number(chip.y));
    c.set("tile_rows", JsonValue::make_number(double(chip.tile_rows)));
    c.set("tile_cols", JsonValue::make_number(double(chip.tile_cols)));
    JsonValue layers = JsonValue::make_array();
    for (const LayerSpec& layer : chip.layers) {
      JsonValue l = JsonValue::make_object();
      const bool die = layer.kind == LayerSpec::Kind::kDie;
      l.set("kind", JsonValue::make_string(die ? "die" : "interface"));
      l.set("name", JsonValue::make_string(layer.name));
      l.set("material", material_to_json(layer.material));
      l.set("thickness", JsonValue::make_number(layer.thickness));
      if (layer.slabs != 1) l.set("slabs", JsonValue::make_number(double(layer.slabs)));
      if (die) {
        l.set("power_w", JsonValue::make_number(layer.power_w));
        if (!layer.floorplan_path.empty()) {
          l.set("floorplan", JsonValue::make_string(layer.floorplan_path));
        }
        if (!layer.ptrace_path.empty()) {
          l.set("ptrace", JsonValue::make_string(layer.ptrace_path));
        }
      } else {
        l.set("tec_capable", JsonValue::make_bool(layer.tec_capable));
        if (!layer.tec_sites.empty()) {
          JsonValue sites = JsonValue::make_array();
          for (const Tile& t : layer.tec_sites) {
            JsonValue pair = JsonValue::make_array();
            pair.push_back(JsonValue::make_number(double(t.row)));
            pair.push_back(JsonValue::make_number(double(t.col)));
            sites.push_back(std::move(pair));
          }
          l.set("tec_sites", std::move(sites));
        }
      }
      layers.push_back(std::move(l));
    }
    c.set("layers", std::move(layers));
    chips.push_back(std::move(c));
  }
  doc.set("chips", std::move(chips));

  JsonValue spreader = JsonValue::make_object();
  spreader.set("side", JsonValue::make_number(spec.spreader_side));
  spreader.set("thickness", JsonValue::make_number(spec.spreader_thickness));
  spreader.set("material", material_to_json(spec.spreader_material));
  if (spec.spreader_slabs != 1) {
    spreader.set("slabs", JsonValue::make_number(double(spec.spreader_slabs)));
  }
  doc.set("spreader", std::move(spreader));

  JsonValue sink = JsonValue::make_object();
  sink.set("side", JsonValue::make_number(spec.sink_side));
  sink.set("thickness", JsonValue::make_number(spec.sink_thickness));
  sink.set("material", material_to_json(spec.sink_material));
  doc.set("sink", std::move(sink));

  doc.set("convection_resistance", JsonValue::make_number(spec.convection_resistance));
  doc.set("ambient_k", JsonValue::make_number(spec.ambient));

  if (spec.model_secondary_path) {
    JsonValue secondary = JsonValue::make_object();
    secondary.set("c4_resistance", JsonValue::make_number(spec.c4_resistance));
    secondary.set("substrate_to_board_resistance",
                  JsonValue::make_number(spec.substrate_to_board_resistance));
    secondary.set("board_convection_resistance",
                  JsonValue::make_number(spec.board_convection_resistance));
    doc.set("secondary_path", std::move(secondary));
  }
  return doc;
}

StackSpec spec_from_json(const JsonValue& value) {
  if (!value.is_object()) fail("document must be an object");
  check_keys(value,
             {"name", "chips", "spreader", "sink", "convection_resistance", "ambient_k",
              "secondary_path"},
             "document");
  StackSpec spec;
  spec.name = value.string_or("name", "package");

  const JsonValue& chips = require(value, "chips", "document");
  if (!chips.is_array() || chips.as_array().empty()) {
    fail("document: chips must be a non-empty array");
  }
  for (std::size_t ci = 0; ci < chips.as_array().size(); ++ci) {
    spec.chips.push_back(chip_from_json(chips.as_array()[ci], ci));
  }

  if (const JsonValue* spreader = value.get("spreader")) {
    const std::string where = "spreader";
    if (!spreader->is_object()) fail("spreader must be an object");
    check_keys(*spreader, {"side", "thickness", "material", "slabs"}, where);
    spec.spreader_side = require_number(*spreader, "side", where);
    spec.spreader_thickness = require_number(*spreader, "thickness", where);
    if (spreader->has("material")) {
      spec.spreader_material = material_from_json(spreader->at("material"), where);
    }
    spec.spreader_slabs = integer_or(*spreader, "slabs", 1, where);
  }
  if (const JsonValue* sink = value.get("sink")) {
    const std::string where = "sink";
    if (!sink->is_object()) fail("sink must be an object");
    check_keys(*sink, {"side", "thickness", "material"}, where);
    spec.sink_side = require_number(*sink, "side", where);
    spec.sink_thickness = require_number(*sink, "thickness", where);
    if (sink->has("material")) {
      spec.sink_material = material_from_json(sink->at("material"), where);
    }
  }
  if (value.has("convection_resistance")) {
    spec.convection_resistance =
        require_number(value, "convection_resistance", "document");
  }
  if (value.has("ambient_k")) {
    spec.ambient = require_number(value, "ambient_k", "document");
  }
  if (const JsonValue* secondary = value.get("secondary_path")) {
    const std::string where = "secondary_path";
    if (!secondary->is_object()) fail("secondary_path must be an object");
    check_keys(*secondary,
               {"c4_resistance", "substrate_to_board_resistance",
                "board_convection_resistance"},
               where);
    spec.model_secondary_path = true;
    spec.c4_resistance = secondary->number_or("c4_resistance", spec.c4_resistance);
    spec.substrate_to_board_resistance = secondary->number_or(
        "substrate_to_board_resistance", spec.substrate_to_board_resistance);
    spec.board_convection_resistance = secondary->number_or(
        "board_convection_resistance", spec.board_convection_resistance);
  }
  return spec;
}

StackSpec load_stack_spec(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open spec file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  StackSpec spec = spec_from_json(parse_json(buffer.str()));
  spec.validate();  // before rasterizing any floorplan onto the tile grid

  const std::string dir = directory_of(path);
  for (ChipSpec& chip : spec.chips) {
    for (LayerSpec& layer : chip.layers) {
      if (layer.kind != LayerSpec::Kind::kDie || layer.floorplan_path.empty()) continue;
      const std::string flp_path = resolve(dir, layer.floorplan_path);
      std::ifstream flp(flp_path);
      if (!flp) throw std::runtime_error("cannot open floorplan: " + flp_path);
      floorplan::Floorplan plan =
          floorplan::rasterize_flp(floorplan::read_flp(flp), chip.width, chip.height,
                                   chip.tile_rows, chip.tile_cols);
      if (!layer.ptrace_path.empty()) {
        const std::string ptrace_path = resolve(dir, layer.ptrace_path);
        std::ifstream ptrace(ptrace_path);
        if (!ptrace) throw std::runtime_error("cannot open ptrace: " + ptrace_path);
        floorplan::apply_unit_powers(plan, floorplan::read_ptrace_worst_case(ptrace));
      }
      layer.floorplan = std::make_shared<const floorplan::Floorplan>(std::move(plan));
    }
  }
  spec.validate();
  return spec;
}

std::string spec_content_hash(const StackSpec& spec) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](const std::string& s) {
    for (unsigned char ch : s) {
      h ^= ch;
      h *= 1099511628211ull;
    }
  };
  mix(spec_to_json(spec).dump());
  // Attached floorplans shape the model (tile powers, workload units) but are
  // referenced by path in the document — fold their contents in too so specs
  // differing only in imported data hash apart.
  for (const ChipSpec& chip : spec.chips) {
    for (const LayerSpec& layer : chip.layers) {
      if (layer.floorplan == nullptr) continue;
      mix("|flp|");
      for (const floorplan::FunctionalUnit& unit : layer.floorplan->units()) {
        JsonValue u = JsonValue::make_object();
        u.set("name", JsonValue::make_string(unit.name));
        u.set("power", JsonValue::make_number(unit.peak_power));
        JsonValue rects = JsonValue::make_array();
        for (const floorplan::TileRect& r : unit.rects) {
          JsonValue rect = JsonValue::make_array();
          rect.push_back(JsonValue::make_number(double(r.row)));
          rect.push_back(JsonValue::make_number(double(r.col)));
          rect.push_back(JsonValue::make_number(double(r.rows)));
          rect.push_back(JsonValue::make_number(double(r.cols)));
          rects.push_back(std::move(rect));
        }
        u.set("rects", std::move(rects));
        mix(u.dump());
      }
    }
  }
  static const char* kHex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[std::size_t(i)] = kHex[h & 0xF];
    h >>= 4;
  }
  return out;
}

}  // namespace tfc::io
