/// \file runaway.h
/// \brief Thermal-runaway limit λ_m of the coupled system (Theorem 1/2).
///
/// λ_m = min{θᵀGθ : θᵀDθ = 1} is the supply current at which G − i·D loses
/// positive definiteness: Peltier pumping is fully offset by ohmic heating
/// and back-conduction, the coefficient of performance hits zero, and every
/// entry of (G − i·D)⁻¹ diverges — the chip overheats without bound in the
/// steady-state model.
///
/// λ_m is computed one way on every path: a sparse shift-invert Lanczos on
/// the pencil (G, D) itself (linalg::ShiftInvertLanczos) — a coarse Ritz
/// estimate from a few triangular solves with the factor of G, then one
/// factorization of G just below λ_m (through the system's shared symbolic
/// analysis) that refines the eigenvector and certifies minimality. The
/// factor of G may come from the caller: the engine factors G into a pooled
/// workspace, where the current search's first probe (i = 0) finds it again.
/// No dense matrix is ever formed, so it scales past the paper's 12×12 grid.
///
/// The exact reduction onto the TEC nodes stays as a diagnostic and test
/// oracle: G − i·D differs from G only on hot/cold rows, so
/// PD(G − i·D) ⇔ PD(S₀ − i·D_T) where S₀ = G_TT − G_TN·G_NN⁻¹·G_NT is the
/// (current-independent!) Schur complement of G on the TEC block.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "linalg/lanczos.h"
#include "tec/electro_thermal.h"

namespace tfc::tec {

/// λ_m plus the Lanczos iteration count.
struct RunawayResult {
  std::optional<double> lambda_m;
  /// Lanczos steps taken.
  std::size_t iterations = 0;
};

/// Compute λ_m for the system. Returns nullopt when no finite limit exists
/// (no TEC deployed, or D has no positive direction). Throws
/// linalg::LanczosShiftError if G itself is not positive definite and
/// linalg::LanczosNonConvergedError if the eigenvalue cannot be certified.
std::optional<double> runaway_limit(const ElectroThermalSystem& system);

/// As runaway_limit(), additionally reporting the Lanczos iteration count.
/// \p ws, when given, supplies the Lanczos scratch (a pooled
/// tec::SolveWorkspace::lanczos — zero allocations once warm); a local one
/// is used otherwise. \p g_factor, when given, must be the factor of
/// system.matrix_g() (G − 0·D); the Lanczos then runs on it instead of
/// factoring G itself.
RunawayResult runaway_limit_ex(const ElectroThermalSystem& system,
                               linalg::ShiftInvertLanczosWorkspace* ws = nullptr,
                               const linalg::SparseCholeskyFactor* g_factor = nullptr);

/// The current-independent Schur complement S₀ of G on the TEC (hot ∪ cold)
/// block, plus the matching diagonal of D. Exposed for diagnostics and tests.
struct SchurReduction {
  linalg::DenseMatrix s0;       ///< m×m, m = 2·#devices
  linalg::Vector d_diag;        ///< ±α per reduced row
  std::vector<std::size_t> tec_nodes;  ///< original node indices, hot then cold
};

/// Build the reduction. Throws std::invalid_argument when no TECs exist.
SchurReduction schur_reduction(const ElectroThermalSystem& system);

}  // namespace tfc::tec
