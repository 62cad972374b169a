/// \file validation.h
/// \brief Compact-vs-reference model comparison (the paper's HotSpot 4.1
/// validation: "the worst-case difference is less than 1.5 °C").
///
/// The reference model is the same package discretized finer (a refined
/// tile grid + z-slabs per layer) — the role HotSpot/FEM plays in the paper.
#pragma once

#include "linalg/vector.h"
#include "thermal/package_model.h"

namespace tfc::thermal {

/// Result of one validation run.
struct ValidationReport {
  /// Per-tile temperatures [K] from the compact (coarse) model.
  linalg::Vector coarse;
  /// Per-tile temperatures [K] from the refined reference model.
  linalg::Vector reference;
  /// max_k |coarse_k - reference_k| [K].
  double max_abs_diff = 0.0;
  /// mean_k |coarse_k - reference_k| [K].
  double mean_abs_diff = 0.0;
  std::size_t coarse_nodes = 0;
  std::size_t reference_nodes = 0;
};

/// Reference discretization parameters.
struct ReferenceResolution {
  /// Each tile becomes refine × refine fine cells.
  std::size_t refine = 4;
  /// Z-slabs of every die layer, every interface layer, and the spreader.
  std::size_t die_slabs = 3;
  std::size_t interface_slabs = 1;
  std::size_t spreader_slabs = 3;
};

/// The fine-grid reference model of a package: \p spec with every chip's
/// tile grid refined f = resolution.refine times per direction and
/// its layers split into the requested z-slabs, \p tile_powers spread evenly
/// over each tile's f×f fine cells, and one TEC device per fine cell under
/// each tile of \p deployment, each carrying 1/f² of \p link. Per-die
/// floorplans are dropped (the powers come from \p tile_powers). Throws
/// std::invalid_argument on a zero refinement or slab count.
PackageModel build_reference_model(const StackSpec& spec, const TileMask& deployment,
                                   const TecThermalLink& link,
                                   const linalg::Vector& tile_powers,
                                   const ReferenceResolution& resolution);

/// Run the same power map through the compact model of \p spec (passive TEC
/// devices on \p deployment, which may be empty) and its reference model,
/// and compare tile temperatures, the reference averaged back over each
/// tile's fine cells. \p tile_powers is the worst-case power map [W per
/// tile] on the spec's virtual grid. The compact model is solved by sparse
/// Cholesky; a reference above 5000 nodes by Jacobi-preconditioned CG
/// (relative tolerance 1e-12, at most 50000 iterations), which beats the
/// direct factorization at that size. Throws std::runtime_error when CG does
/// not converge.
ValidationReport validate_against_reference(const StackSpec& spec,
                                            const TileMask& deployment,
                                            const TecThermalLink& link,
                                            const linalg::Vector& tile_powers,
                                            const ReferenceResolution& resolution = {});

}  // namespace tfc::thermal
