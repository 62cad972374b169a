#include "thermal/package_model.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace tfc::thermal {

namespace {

/// Resistance of half a slab of thickness t and conductivity k over area a.
double half_slab_resistance(double t, double k, double a) { return (0.5 * t) / (k * a); }

/// Conductance of two resistances in series.
double series(double r1, double r2) { return 1.0 / (r1 + r2); }

constexpr double kTinyLength = 1e-12;  // [m] threshold for "no overhang"

}  // namespace

void TecThermalLink::validate() const {
  if (!(g_cold_contact > 0.0) || !(g_internal > 0.0) || !(g_hot_contact > 0.0)) {
    throw std::invalid_argument("TecThermalLink: all conductances must be > 0");
  }
}

std::size_t PackageModel::tile_index(Tile t) const {
  if (t.row >= tile_rows_ || t.col >= tile_cols_) {
    throw std::out_of_range("PackageModel: tile out of range");
  }
  return t.row * tile_cols_ + t.col;
}

std::size_t PackageModel::silicon_node(Tile t) const { return tile_node_[tile_index(t)]; }

PackageModel::DieCell PackageModel::die_cell(Tile t) const {
  for (std::size_t k = dies_.size(); k-- > 0;) {
    if (t.row >= dies_[k].row_offset) {
      return {k, t.row - dies_[k].row_offset, t.col};
    }
  }
  throw std::out_of_range("PackageModel: tile outside every die band");
}

void PackageModel::index_tiles() {
  // Every die injects/reads on the mid slab of its own layer grid.
  tile_node_.assign(tile_count(), kNoNode);
  for (const StackSpec::DieRef& die : dies_) {
    const std::size_t rows = spec_->chips[die.chip].tile_rows;
    const auto& grid = lay_[die.chip][die.layer];
    const auto& mid = grid[grid.size() / 2];
    for (std::size_t j = 0; j < rows * tile_cols_; ++j) {
      tile_node_[die.row_offset * tile_cols_ + j] = mid[j];
    }
  }
}

std::size_t PackageModel::tec_cold_node(Tile t) const {
  const std::size_t id = tec_cold_[tile_index(t)];
  if (id == kNoNode) throw std::invalid_argument("PackageModel: no TEC at tile");
  return id;
}

std::size_t PackageModel::tec_hot_node(Tile t) const {
  const std::size_t id = tec_hot_[tile_index(t)];
  if (id == kNoNode) throw std::invalid_argument("PackageModel: no TEC at tile");
  return id;
}

void PackageModel::set_tile_powers(const linalg::Vector& tile_powers) {
  if (tile_powers.size() != tile_count()) {
    throw std::invalid_argument("PackageModel::set_tile_powers: size mismatch");
  }
  for (std::size_t k = 0; k < tile_count(); ++k) {
    if (tile_powers[k] < 0.0) {
      throw std::invalid_argument("PackageModel::set_tile_powers: negative power");
    }
    network_.set_power(tile_node_[k], tile_powers[k]);
  }
}

linalg::Vector PackageModel::tile_powers() const {
  linalg::Vector out(tile_count());
  for (std::size_t k = 0; k < tile_count(); ++k) out[k] = network_.power(tile_node_[k]);
  return out;
}

linalg::Vector PackageModel::tile_temperatures(const linalg::Vector& theta) const {
  linalg::Vector out;
  tile_temperatures_into(theta, out);
  return out;
}

void PackageModel::tile_temperatures_into(const linalg::Vector& theta,
                                          linalg::Vector& out) const {
  if (theta.size() != network_.node_count()) {
    throw std::invalid_argument("PackageModel::tile_temperatures: size mismatch");
  }
  out.resize(tile_count());
  for (std::size_t k = 0; k < tile_count(); ++k) out[k] = theta[tile_node_[k]];
}

double PackageModel::peak_tile_temperature(const linalg::Vector& theta) const {
  return linalg::max_entry(tile_temperatures(theta));
}

PackageModel PackageModel::build(std::shared_ptr<const StackSpec> spec,
                                 const TileMask& deployment, const TecThermalLink& link,
                                 std::size_t tec_stages) {
  if (spec == nullptr) throw std::invalid_argument("PackageModel: null spec");
  spec->validate();
  if (tec_stages == 0) {
    throw std::invalid_argument("PackageModel: tec_stages must be >= 1");
  }
  PackageModel model;
  model.spec_ = std::move(spec);
  const StackSpec& sp = *model.spec_;
  model.dies_ = sp.dies();

  const std::size_t vrows = sp.total_tile_rows();
  const std::size_t vcols = sp.tile_cols();
  const bool any_tec = deployment.grid_size() != 0 && !deployment.empty();
  if (any_tec) {
    if (deployment.rows() != vrows || deployment.cols() != vcols) {
      throw std::invalid_argument("PackageModel: deployment mask shape mismatch");
    }
    if (!deployment.subset_of(sp.tec_allowed_tiles())) {
      throw std::invalid_argument("PackageModel: deployment outside TEC-capable sites");
    }
    link.validate();
  }
  model.tile_rows_ = vrows;
  model.tile_cols_ = vcols;
  model.deployment_ = any_tec ? deployment : TileMask(vrows, vcols);
  model.stages_ = tec_stages;

  ConductanceNetwork& net = model.network_;
  const std::size_t n_chips = sp.chips.size();

  // First virtual row of the die below each interface layer.
  std::vector<std::vector<std::size_t>> die_row(n_chips);
  for (std::size_t ci = 0; ci < n_chips; ++ci) {
    die_row[ci].assign(sp.chips[ci].layers.size(), 0);
  }
  for (const auto& d : model.dies_) die_row[d.chip][d.layer] = d.row_offset;

  // ---- node creation ------------------------------------------------------
  const auto add_chip_grid = [&](NodeKind kind, std::size_t slabs, double slab_t,
                                 double vol_c, double cell_area, std::size_t rows,
                                 std::size_t cols, auto&& skip) {
    std::vector<std::vector<std::size_t>> ids(slabs,
                                              std::vector<std::size_t>(rows * cols, kNoNode));
    for (std::size_t sl = 0; sl < slabs; ++sl) {
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
          if (skip(r, c)) continue;
          NodeInfo info;
          info.kind = kind;
          info.row = r;
          info.col = c;
          info.slab = sl;
          info.area = cell_area;
          info.capacitance = vol_c * cell_area * slab_t;
          ids[sl][r * cols + c] = net.add_node(info);
        }
      }
    }
    return ids;
  };
  const auto no_skip = [](std::size_t, std::size_t) { return false; };

  model.lay_.resize(n_chips);
  model.sprg_.resize(n_chips);
  model.snkg_.resize(n_chips);
  for (std::size_t ci = 0; ci < n_chips; ++ci) {
    const ChipSpec& ch = sp.chips[ci];
    model.lay_[ci].resize(ch.layers.size());
    for (std::size_t li = 0; li < ch.layers.size(); ++li) {
      const LayerSpec& layer = ch.layers[li];
      const bool iface = layer.kind == LayerSpec::Kind::kInterface;
      const std::size_t band = iface ? die_row[ci][li - 1] : 0;
      const auto skip = [&](std::size_t r, std::size_t c) {
        return iface && any_tec && deployment.test(band + r, c);
      };
      model.lay_[ci][li] = add_chip_grid(
          iface ? NodeKind::kTim : NodeKind::kSilicon, layer.slabs,
          layer.thickness / double(layer.slabs), layer.material.volumetric_heat_capacity,
          ch.cell_area(), ch.tile_rows, ch.tile_cols, skip);
    }
  }
  for (std::size_t ci = 0; ci < n_chips; ++ci) {
    const ChipSpec& ch = sp.chips[ci];
    model.sprg_[ci] = add_chip_grid(NodeKind::kSpreaderCenter, sp.spreader_slabs,
                                    sp.spreader_thickness / double(sp.spreader_slabs),
                                    sp.spreader_material.volumetric_heat_capacity,
                                    ch.cell_area(), ch.tile_rows, ch.tile_cols, no_skip);
  }
  for (std::size_t ci = 0; ci < n_chips; ++ci) {
    const ChipSpec& ch = sp.chips[ci];
    model.snkg_[ci] = add_chip_grid(NodeKind::kSinkCenter, 1, sp.sink_thickness,
                                    sp.sink_material.volumetric_heat_capacity,
                                    ch.cell_area(), ch.tile_rows, ch.tile_cols, no_skip)[0];
  }

  // TEC chains, one per deployed tile in virtual row-major order.
  model.tec_cold_.assign(vrows * vcols, kNoNode);
  model.tec_hot_.assign(vrows * vcols, kNoNode);
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> stage_chains;
  if (any_tec) {
    for (Tile t : deployment.tiles()) {
      const DieCell dc = model.die_cell(t);
      const StackSpec::DieRef& die = model.dies_[dc.die];
      const ChipSpec& ch = sp.chips[die.chip];
      const LayerSpec& iface = ch.layers[die.layer + 1];
      NodeInfo cold;
      cold.kind = NodeKind::kTecCold;
      cold.row = t.row;
      cold.col = t.col;
      cold.area = ch.cell_area();
      cold.capacitance = iface.material.volumetric_heat_capacity * ch.cell_area() *
                         (0.5 * iface.thickness / double(tec_stages));
      NodeInfo hot = cold;
      hot.kind = NodeKind::kTecHot;

      std::vector<std::pair<std::size_t, std::size_t>> chain;
      chain.reserve(tec_stages);
      for (std::size_t st = 0; st < tec_stages; ++st) {
        NodeInfo c = cold;
        NodeInfo h = hot;
        c.slab = h.slab = st;
        const std::size_t c_id = net.add_node(c);
        const std::size_t h_id = net.add_node(h);
        chain.emplace_back(c_id, h_id);
        model.cold_nodes_.push_back(c_id);
        model.hot_nodes_.push_back(h_id);
      }
      const std::size_t idx = t.row * vcols + t.col;
      model.tec_cold_[idx] = chain.front().first;
      model.tec_hot_[idx] = chain.back().second;
      model.tec_tile_list_.push_back(t);
      stage_chains.push_back(std::move(chain));
    }
  }

  // Shared periphery macros around the bounding box of every chip footprint.
  // Multi-chip packages couple through these shared spreader/sink macros — a
  // compact-model approximation documented in docs/PACKAGES.md.
  double bx0 = 0.0, bx1 = 0.0, by0 = 0.0, by1 = 0.0;
  for (std::size_t ci = 0; ci < n_chips; ++ci) {
    const ChipSpec& ch = sp.chips[ci];
    const double x0 = ch.x - 0.5 * ch.width;
    const double x1 = ch.x + 0.5 * ch.width;
    const double y0 = ch.y - 0.5 * ch.height;
    const double y1 = ch.y + 0.5 * ch.height;
    if (ci == 0) {
      bx0 = x0; bx1 = x1; by0 = y0; by1 = y1;
    } else {
      bx0 = std::min(bx0, x0);
      bx1 = std::max(bx1, x1);
      by0 = std::min(by0, y0);
      by1 = std::max(by1, y1);
    }
  }
  const double bbox_w = bx1 - bx0;
  const double bbox_h = by1 - by0;
  const double ov_sp_x = 0.5 * (sp.spreader_side - bbox_w);
  const double ov_sp_y = 0.5 * (sp.spreader_side - bbox_h);
  const double ov_sk = 0.5 * (sp.sink_side - sp.spreader_side);
  const bool has_sp_periph = ov_sp_x > kTinyLength && ov_sp_y > kTinyLength;
  const bool has_sk_outer = ov_sk > kTinyLength;
  const double edge_len_ns = bbox_w;
  const double edge_len_we = bbox_h;

  const double k_spr = sp.spreader_material.thermal_conductivity;
  const double k_snk = sp.sink_material.thermal_conductivity;
  const double c_spr = sp.spreader_material.volumetric_heat_capacity;
  const double c_snk = sp.sink_material.volumetric_heat_capacity;
  const double t_spr_slab = sp.spreader_thickness / double(sp.spreader_slabs);

  const auto add_macro = [&](NodeKind kind, double area, double thickness, double vol_c) {
    NodeInfo info;
    info.kind = kind;
    info.area = area;
    info.capacitance = vol_c * area * thickness;
    return net.add_node(info);
  };

  std::vector<std::size_t> sp_edge(4, kNoNode), sp_corner(4, kNoNode);
  std::vector<std::size_t> sk_in_edge(4, kNoNode), sk_in_corner(4, kNoNode);
  std::vector<std::size_t> sk_out_edge(4, kNoNode), sk_out_corner(4, kNoNode);
  if (has_sp_periph) {
    const double ea[4] = {edge_len_ns * ov_sp_y, edge_len_ns * ov_sp_y,
                          edge_len_we * ov_sp_x, edge_len_we * ov_sp_x};
    for (int e = 0; e < 4; ++e) {
      sp_edge[e] = add_macro(NodeKind::kSpreaderEdge, ea[e], sp.spreader_thickness, c_spr);
      sk_in_edge[e] = add_macro(NodeKind::kSinkInnerEdge, ea[e], sp.sink_thickness, c_snk);
    }
    const double ca = ov_sp_x * ov_sp_y;
    for (int c = 0; c < 4; ++c) {
      sp_corner[c] = add_macro(NodeKind::kSpreaderCorner, ca, sp.spreader_thickness, c_spr);
      sk_in_corner[c] = add_macro(NodeKind::kSinkInnerCorner, ca, sp.sink_thickness, c_snk);
    }
  }
  if (has_sk_outer) {
    const double ea = sp.spreader_side * ov_sk;
    const double ca = ov_sk * ov_sk;
    for (int e = 0; e < 4; ++e) {
      sk_out_edge[e] = add_macro(NodeKind::kSinkOuterEdge, ea, sp.sink_thickness, c_snk);
    }
    for (int c = 0; c < 4; ++c) {
      sk_out_corner[c] = add_macro(NodeKind::kSinkOuterCorner, ca, sp.sink_thickness, c_snk);
    }
  }

  // ---- lateral conductances within each grid slab --------------------------
  const auto lateral_grid = [&](const std::vector<std::vector<std::size_t>>& ids,
                                double slab_t, double k, double px, double py,
                                std::size_t rows, std::size_t cols) {
    const double gx = k * slab_t * py / px;
    const double gy = k * slab_t * px / py;
    for (const auto& slab : ids) {
      for (std::size_t rr = 0; rr < rows; ++rr) {
        for (std::size_t cc = 0; cc < cols; ++cc) {
          const std::size_t a = slab[rr * cols + cc];
          if (a == kNoNode) continue;
          if (cc + 1 < cols) {
            const std::size_t b = slab[rr * cols + cc + 1];
            if (b != kNoNode) net.add_conductance(a, b, gx);
          }
          if (rr + 1 < rows) {
            const std::size_t b = slab[(rr + 1) * cols + cc];
            if (b != kNoNode) net.add_conductance(a, b, gy);
          }
        }
      }
    }
  };
  for (std::size_t ci = 0; ci < n_chips; ++ci) {
    const ChipSpec& ch = sp.chips[ci];
    for (std::size_t li = 0; li < ch.layers.size(); ++li) {
      const LayerSpec& layer = ch.layers[li];
      lateral_grid(model.lay_[ci][li], layer.thickness / double(layer.slabs),
                   layer.material.thermal_conductivity, ch.cell_pitch_x(),
                   ch.cell_pitch_y(), ch.tile_rows, ch.tile_cols);
    }
  }
  for (std::size_t ci = 0; ci < n_chips; ++ci) {
    const ChipSpec& ch = sp.chips[ci];
    lateral_grid(model.sprg_[ci], t_spr_slab, k_spr, ch.cell_pitch_x(), ch.cell_pitch_y(),
                 ch.tile_rows, ch.tile_cols);
  }
  for (std::size_t ci = 0; ci < n_chips; ++ci) {
    const ChipSpec& ch = sp.chips[ci];
    lateral_grid({model.snkg_[ci]}, sp.sink_thickness, k_snk, ch.cell_pitch_x(),
                 ch.cell_pitch_y(), ch.tile_rows, ch.tile_cols);
  }

  // ---- vertical conductances within each layer -----------------------------
  const auto vertical_within = [&](const std::vector<std::vector<std::size_t>>& ids,
                                   double slab_t, double k, double cell_area,
                                   std::size_t cells) {
    const double gv = k * cell_area / slab_t;
    for (std::size_t sl = 0; sl + 1 < ids.size(); ++sl) {
      for (std::size_t i = 0; i < cells; ++i) {
        if (ids[sl][i] != kNoNode && ids[sl + 1][i] != kNoNode) {
          net.add_conductance(ids[sl][i], ids[sl + 1][i], gv);
        }
      }
    }
  };
  for (std::size_t ci = 0; ci < n_chips; ++ci) {
    const ChipSpec& ch = sp.chips[ci];
    const std::size_t cells = ch.tile_rows * ch.tile_cols;
    for (std::size_t li = 0; li < ch.layers.size(); ++li) {
      const LayerSpec& layer = ch.layers[li];
      vertical_within(model.lay_[ci][li], layer.thickness / double(layer.slabs),
                      layer.material.thermal_conductivity, ch.cell_area(), cells);
    }
  }
  for (std::size_t ci = 0; ci < n_chips; ++ci) {
    const ChipSpec& ch = sp.chips[ci];
    vertical_within(model.sprg_[ci], t_spr_slab, k_spr, ch.cell_area(),
                    ch.tile_rows * ch.tile_cols);
  }

  // ---- vertical conductances across layers ---------------------------------
  // Per cell, bottom-up: consecutive stack layers couple through their
  // adjacent half-slabs; the top interface bonds to the spreader; the
  // spreader bonds to the sink. Cells whose interface gave way to a TEC skip
  // the conduction edges here and couple through the TEC block below.
  for (std::size_t ci = 0; ci < n_chips; ++ci) {
    const ChipSpec& ch = sp.chips[ci];
    const std::size_t cells = ch.tile_rows * ch.tile_cols;
    const double cell_area = ch.cell_area();
    std::vector<double> r_half(ch.layers.size(), 0.0);
    for (std::size_t li = 0; li < ch.layers.size(); ++li) {
      const LayerSpec& layer = ch.layers[li];
      r_half[li] = half_slab_resistance(layer.thickness / double(layer.slabs),
                                        layer.material.thermal_conductivity, cell_area);
    }
    const double r_half_spr = half_slab_resistance(t_spr_slab, k_spr, cell_area);
    const double r_half_snk = half_slab_resistance(sp.sink_thickness, k_snk, cell_area);
    const std::size_t top = ch.layers.size() - 1;
    for (std::size_t i = 0; i < cells; ++i) {
      for (std::size_t li = 0; li + 1 < ch.layers.size(); ++li) {
        const std::size_t a = model.lay_[ci][li].back()[i];
        const std::size_t b = model.lay_[ci][li + 1].front()[i];
        if (a != kNoNode && b != kNoNode) {
          net.add_conductance(a, b, series(r_half[li], r_half[li + 1]));
        }
      }
      const std::size_t t_node = model.lay_[ci][top].back()[i];
      if (t_node != kNoNode) {
        net.add_conductance(t_node, model.sprg_[ci].front()[i],
                            series(r_half[top], r_half_spr));
      }
      net.add_conductance(model.sprg_[ci].back()[i], model.snkg_[ci][i],
                          series(r_half_spr, r_half_snk));
    }
  }

  // TEC substitution: die-top —g_c— cold —κ— hot —g_h— layer-above (the next
  // die's bottom slab in a 3-D stack, or the spreader for the top interface).
  if (any_tec) {
    const double g_interstage =
        1.0 / (1.0 / link.g_hot_contact + 1.0 / link.g_cold_contact);
    for (std::size_t k = 0; k < model.tec_tile_list_.size(); ++k) {
      const Tile t = model.tec_tile_list_[k];
      const auto& chain = stage_chains[k];
      for (std::size_t st = 0; st < chain.size(); ++st) {
        net.add_conductance(chain[st].first, chain[st].second, link.g_internal);
        if (st + 1 < chain.size()) {
          net.add_conductance(chain[st].second, chain[st + 1].first, g_interstage);
        }
      }
      const std::size_t cold = chain.front().first;
      const std::size_t hot = chain.back().second;
      const DieCell dc = model.die_cell(t);
      const StackSpec::DieRef& die = model.dies_[dc.die];
      const ChipSpec& ch = sp.chips[die.chip];
      const std::size_t cell = dc.row * ch.tile_cols + dc.col;
      const double cell_area = ch.cell_area();
      const LayerSpec& die_l = ch.layers[die.layer];
      const double r_half_below =
          half_slab_resistance(die_l.thickness / double(die_l.slabs),
                               die_l.material.thermal_conductivity, cell_area);
      const std::size_t below = model.lay_[die.chip][die.layer].back()[cell];
      std::size_t above = kNoNode;
      double r_half_above = 0.0;
      if (die.layer + 2 < ch.layers.size()) {
        const LayerSpec& above_l = ch.layers[die.layer + 2];
        above = model.lay_[die.chip][die.layer + 2].front()[cell];
        r_half_above = half_slab_resistance(above_l.thickness / double(above_l.slabs),
                                            above_l.material.thermal_conductivity, cell_area);
      } else {
        above = model.sprg_[die.chip].front()[cell];
        r_half_above = half_slab_resistance(t_spr_slab, k_spr, cell_area);
      }
      net.add_conductance(below, cold, series(r_half_below, 1.0 / link.g_cold_contact));
      net.add_conductance(hot, above, series(1.0 / link.g_hot_contact, r_half_above));
    }
  }

  // ---- spreader / sink periphery -------------------------------------------
  const auto boundary_to_edges = [&](const std::vector<std::vector<std::size_t>>& ids,
                                     double slab_t, double k, double px, double py,
                                     std::size_t rows, std::size_t cols,
                                     const std::vector<std::size_t>& edges, double ov_y_,
                                     double ov_x_) {
    if (edges[0] == kNoNode) return;
    for (const auto& slab : ids) {
      for (std::size_t cc = 0; cc < cols; ++cc) {
        const double gn = series((0.5 * py) / (k * slab_t * px),
                                 (0.5 * ov_y_) / (k * slab_t * px));
        net.add_conductance(slab[cc], edges[0], gn);                       // N
        net.add_conductance(slab[(rows - 1) * cols + cc], edges[1], gn);   // S
      }
      for (std::size_t rr = 0; rr < rows; ++rr) {
        const double gw = series((0.5 * px) / (k * slab_t * py),
                                 (0.5 * ov_x_) / (k * slab_t * py));
        net.add_conductance(slab[rr * cols + 0], edges[2], gw);            // W
        net.add_conductance(slab[rr * cols + (cols - 1)], edges[3], gw);   // E
      }
    }
  };

  const auto edge_corner_links = [&](const std::vector<std::size_t>& edges,
                                     const std::vector<std::size_t>& corners, double k,
                                     double t, double ov_x_, double ov_y_) {
    if (edges[0] == kNoNode || corners[0] == kNoNode) return;
    const double g_ns = series((0.5 * edge_len_ns) / (k * t * ov_sp_y),
                               (0.5 * ov_x_) / (k * t * ov_y_));
    const double g_we = series((0.5 * edge_len_we) / (k * t * ov_sp_x),
                               (0.5 * ov_y_) / (k * t * ov_x_));
    net.add_conductance(edges[0], corners[0], g_ns);
    net.add_conductance(edges[0], corners[1], g_ns);
    net.add_conductance(edges[1], corners[2], g_ns);
    net.add_conductance(edges[1], corners[3], g_ns);
    net.add_conductance(edges[2], corners[0], g_we);
    net.add_conductance(edges[2], corners[2], g_we);
    net.add_conductance(edges[3], corners[1], g_we);
    net.add_conductance(edges[3], corners[3], g_we);
  };

  if (has_sp_periph) {
    for (std::size_t ci = 0; ci < n_chips; ++ci) {
      const ChipSpec& ch = sp.chips[ci];
      boundary_to_edges(model.sprg_[ci], t_spr_slab, k_spr, ch.cell_pitch_x(),
                        ch.cell_pitch_y(), ch.tile_rows, ch.tile_cols, sp_edge, ov_sp_y,
                        ov_sp_x);
    }
    edge_corner_links(sp_edge, sp_corner, k_spr, sp.spreader_thickness, ov_sp_x, ov_sp_y);
    for (std::size_t ci = 0; ci < n_chips; ++ci) {
      const ChipSpec& ch = sp.chips[ci];
      boundary_to_edges({model.snkg_[ci]}, sp.sink_thickness, k_snk, ch.cell_pitch_x(),
                        ch.cell_pitch_y(), ch.tile_rows, ch.tile_cols, sk_in_edge, ov_sp_y,
                        ov_sp_x);
    }
    edge_corner_links(sk_in_edge, sk_in_corner, k_snk, sp.sink_thickness, ov_sp_x, ov_sp_y);

    const double ea[4] = {edge_len_ns * ov_sp_y, edge_len_ns * ov_sp_y,
                          edge_len_we * ov_sp_x, edge_len_we * ov_sp_x};
    for (int e = 0; e < 4; ++e) {
      net.add_conductance(
          sp_edge[e], sk_in_edge[e],
          series(half_slab_resistance(sp.spreader_thickness, k_spr, ea[e]),
                 half_slab_resistance(sp.sink_thickness, k_snk, ea[e])));
    }
    const double ca = ov_sp_x * ov_sp_y;
    for (int c = 0; c < 4; ++c) {
      net.add_conductance(sp_corner[c], sk_in_corner[c],
                          series(half_slab_resistance(sp.spreader_thickness, k_spr, ca),
                                 half_slab_resistance(sp.sink_thickness, k_snk, ca)));
    }
  }

  if (has_sk_outer) {
    const double k = k_snk;
    const double t = sp.sink_thickness;
    if (has_sp_periph) {
      for (int e = 0; e < 4; ++e) {
        const double ov_in = (e < 2) ? ov_sp_y : ov_sp_x;
        const double g_io = series((0.5 * ov_in) / (k * t * sp.spreader_side),
                                   (0.5 * ov_sk) / (k * t * sp.spreader_side));
        net.add_conductance(sk_in_edge[e], sk_out_edge[e], g_io);
      }
      const double w_cc = 0.5 * (0.5 * (ov_sp_x + ov_sp_y) + ov_sk);
      for (int c = 0; c < 4; ++c) {
        const double g_cc = series((0.25 * (ov_sp_x + ov_sp_y)) / (k * t * w_cc),
                                   (0.5 * ov_sk) / (k * t * w_cc));
        net.add_conductance(sk_in_corner[c], sk_out_corner[c], g_cc);
      }
    } else {
      for (std::size_t ci = 0; ci < n_chips; ++ci) {
        const ChipSpec& ch = sp.chips[ci];
        boundary_to_edges({model.snkg_[ci]}, t, k, ch.cell_pitch_x(), ch.cell_pitch_y(),
                          ch.tile_rows, ch.tile_cols, sk_out_edge, ov_sk, ov_sk);
      }
    }
    const double g_ec = series((0.5 * sp.spreader_side) / (k * t * ov_sk),
                               (0.5 * ov_sk) / (k * t * ov_sk));
    for (const auto& [e, c] : {std::pair<int, int>{0, 0}, {0, 1}, {1, 2}, {1, 3},
                               {2, 0}, {2, 2}, {3, 1}, {3, 3}}) {
      if (sk_out_corner[c] != kNoNode) {
        net.add_conductance(sk_out_edge[e], sk_out_corner[c], g_ec);
      }
    }
  }

  // ---- convection to ambient ------------------------------------------------
  const double sink_area = sp.sink_side * sp.sink_side;
  const double g_total = 1.0 / sp.convection_resistance;
  const auto convect = [&](std::size_t node) {
    if (node == kNoNode) return;
    const double a = net.node(node).area;
    net.add_ambient_leg(node, g_total * a / sink_area);
  };
  for (std::size_t ci = 0; ci < n_chips; ++ci) {
    for (std::size_t node : model.snkg_[ci]) convect(node);
  }
  for (int e = 0; e < 4; ++e) {
    convect(sk_in_edge[e]);
    convect(sk_out_edge[e]);
  }
  for (int c = 0; c < 4; ++c) {
    convect(sk_in_corner[c]);
    convect(sk_out_corner[c]);
  }

  // ---- secondary heat path (optional, one lumped pair per chip) -------------
  if (sp.model_secondary_path) {
    for (std::size_t ci = 0; ci < n_chips; ++ci) {
      const ChipSpec& ch = sp.chips[ci];
      NodeInfo sub;
      sub.kind = NodeKind::kOther;
      sub.area = ch.width * ch.height;
      sub.capacitance = 1.6e6 * sub.area * 1e-3;  // ~1 mm organic substrate
      const std::size_t substrate = net.add_node(sub);
      NodeInfo board = sub;
      board.capacitance *= 4.0;  // board slab under the package
      const std::size_t board_node = net.add_node(board);

      const auto& die_bot = model.lay_[ci][0].front();  // bottom die active face
      const double g_c4_sub =
          (1.0 / sp.c4_resistance) / double(ch.tile_rows * ch.tile_cols);
      for (std::size_t node : die_bot) {
        net.add_conductance(node, substrate, g_c4_sub);
      }
      net.add_conductance(substrate, board_node, 1.0 / sp.substrate_to_board_resistance);
      net.add_ambient_leg(board_node, 1.0 / sp.board_convection_resistance);
    }
  }

  model.index_tiles();
  return model;
}

}  // namespace tfc::thermal
