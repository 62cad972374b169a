#include "thermal/validation.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>

#include "linalg/cg.h"
#include "thermal/steady_state.h"

namespace tfc::thermal {

namespace {

/// Node temperatures of the reference model: sparse Cholesky up to 5000
/// nodes, Jacobi-preconditioned CG above (faster on the fine grid).
linalg::Vector solve_reference(const PackageModel& fine) {
  if (fine.node_count() <= 5000) return solve_steady_state(fine);
  const auto& net = fine.network();
  const linalg::SparseMatrix g = net.conductance_matrix();
  auto res = linalg::conjugate_gradient(g, net.rhs(fine.ambient()), 50000);
  if (!res.converged) {
    throw std::runtime_error("validate_against_reference: CG failed to converge");
  }
  return std::move(res.x);
}

}  // namespace

PackageModel build_reference_model(const StackSpec& spec, const TileMask& deployment,
                                   const TecThermalLink& link,
                                   const linalg::Vector& tile_powers,
                                   const ReferenceResolution& resolution) {
  const std::size_t f = resolution.refine;
  if (f == 0 || resolution.die_slabs == 0 || resolution.interface_slabs == 0 ||
      resolution.spreader_slabs == 0) {
    throw std::invalid_argument("build_reference_model: refine/slab counts must be >= 1");
  }
  StackSpec fine = spec;
  for (ChipSpec& chip : fine.chips) {
    chip.tile_rows *= f;
    chip.tile_cols *= f;
    for (LayerSpec& layer : chip.layers) {
      if (layer.kind == LayerSpec::Kind::kDie) {
        layer.slabs = resolution.die_slabs;
        layer.floorplan = nullptr;
        continue;
      }
      layer.slabs = resolution.interface_slabs;
      std::vector<Tile> sites;
      for (const Tile& t : layer.tec_sites) {
        for (std::size_t sr = 0; sr < f; ++sr) {
          for (std::size_t sc = 0; sc < f; ++sc) {
            sites.push_back({t.row * f + sr, t.col * f + sc});
          }
        }
      }
      layer.tec_sites = std::move(sites);
    }
  }
  fine.spreader_slabs = resolution.spreader_slabs;

  // Coarse tile (r, c) owns fine cells (r·f + sr, c·f + sc) on the virtual
  // grid: every chip's rows scale by f, so the die bands do too.
  const std::size_t rows = spec.total_tile_rows();
  const std::size_t cols = spec.tile_cols();
  if (tile_powers.size() != rows * cols) {
    throw std::invalid_argument("build_reference_model: tile power map size mismatch");
  }
  const std::size_t fine_cols = cols * f;
  const double share = 1.0 / double(f * f);
  linalg::Vector fine_powers(rows * f * fine_cols);
  TileMask fine_deployment(rows * f, fine_cols);
  const bool any_tec = deployment.grid_size() != 0 && !deployment.empty();
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const bool tec = any_tec && deployment.test(r, c);
      for (std::size_t sr = 0; sr < f; ++sr) {
        for (std::size_t sc = 0; sc < f; ++sc) {
          const std::size_t cell = (r * f + sr) * fine_cols + c * f + sc;
          fine_powers[cell] = tile_powers[r * cols + c] * share;
          if (tec) fine_deployment.set(r * f + sr, c * f + sc);
        }
      }
    }
  }
  const double fsq = double(f * f);
  const TecThermalLink fine_link{link.g_cold_contact / fsq, link.g_internal / fsq,
                                 link.g_hot_contact / fsq};

  PackageModel model = PackageModel::build(
      std::make_shared<const StackSpec>(std::move(fine)), fine_deployment, fine_link);
  model.set_tile_powers(fine_powers);
  return model;
}

ValidationReport validate_against_reference(const StackSpec& spec,
                                            const TileMask& deployment,
                                            const TecThermalLink& link,
                                            const linalg::Vector& tile_powers,
                                            const ReferenceResolution& resolution) {
  PackageModel coarse =
      PackageModel::build(std::make_shared<const StackSpec>(spec), deployment, link);
  coarse.set_tile_powers(tile_powers);
  const PackageModel fine =
      build_reference_model(spec, deployment, link, tile_powers, resolution);

  ValidationReport report;
  report.coarse = coarse.tile_temperatures(solve_steady_state(coarse));
  report.coarse_nodes = coarse.node_count();
  report.reference_nodes = fine.node_count();

  // Average the reference back over each tile's f×f fine cells.
  const std::size_t f = resolution.refine;
  const std::size_t rows = coarse.tile_rows();
  const std::size_t cols = coarse.tile_cols();
  const linalg::Vector fine_tiles =
      fine.tile_temperatures(solve_reference(fine));
  report.reference = linalg::Vector(rows * cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      double acc = 0.0;
      for (std::size_t sr = 0; sr < f; ++sr) {
        for (std::size_t sc = 0; sc < f; ++sc) {
          acc += fine_tiles[(r * f + sr) * cols * f + c * f + sc];
        }
      }
      report.reference[r * cols + c] = acc / double(f * f);
    }
  }

  double acc = 0.0;
  for (std::size_t i = 0; i < report.coarse.size(); ++i) {
    const double d = std::abs(report.coarse[i] - report.reference[i]);
    report.max_abs_diff = std::max(report.max_abs_diff, d);
    acc += d;
  }
  report.mean_abs_diff = acc / double(report.coarse.size());
  return report;
}

}  // namespace tfc::thermal
