/// \file electro_thermal.h
/// \brief The coupled electro-thermal system (G − i·D)·θ = p(i) of
/// Eq. (4)/(5).
///
/// Wraps a thermal::PackageModel whose TEC tiles were stamped with the
/// device's conductances, and adds the current-dependent parts: the Peltier
/// coupling matrix D (diagonal, +α on HOT rows, −α on CLD rows) and the
/// Joule sources r·i²/2 at both plates of every device.
#pragma once

#include <memory>
#include <optional>

#include "linalg/lanczos.h"
#include "linalg/sparse_cholesky.h"
#include "linalg/sparse_matrix.h"
#include "linalg/vector.h"
#include "tec/device.h"
#include "thermal/package_model.h"

namespace tfc::tec {

/// Steady-state solution at one supply current.
struct OperatingPoint {
  double current = 0.0;
  /// Node temperatures [K].
  linalg::Vector theta;
  /// Silicon tile temperatures [K], row-major.
  linalg::Vector tile_temperatures;
  /// Peak silicon tile temperature [K].
  double peak_tile_temperature = 0.0;
  /// Total electrical input power of all TEC devices [W] (Σ Eq. 3).
  double tec_input_power = 0.0;
};

/// Global energy ledger of one solved operating point. In steady state the
/// row-sum identity of (G − i·D)θ = p(i) + g_amb·θ_amb forces the heat
/// rejected through the ambient boundary to equal everything injected:
/// rejected = source + joule + peltier, exactly. `relative` is the audit
/// certificate: how far the computed θ is from closing that ledger.
struct EnergyBalance {
  /// Installed source power Σ p_k (tile powers) [W].
  double source_w = 0.0;
  /// Total Joule heat r·i²/2 over both plates of every device [W].
  double joule_w = 0.0;
  /// Net Peltier transport i·Σ_k d_k·θ_k [W] (heat the devices move across
  /// the boundary row-sum; positive when pumping raises rejected heat).
  double peltier_w = 0.0;
  /// source_w + joule_w + peltier_w.
  double injected_w = 0.0;
  /// Heat leaving through the ambient legs Σ g_amb,k(θ_k − θ_amb) [W].
  double rejected_w = 0.0;
  /// rejected_w − injected_w (signed closure defect) [W].
  double residual_w = 0.0;
  /// |residual_w| / injected_w — the certificate value (0 when nothing is
  /// injected).
  double relative = 0.0;
};

/// Caller-owned scratch for the zero-allocation probe path: the pencil
/// matrix G − i·D, the numeric factor, and rhs/temperature buffers. Reused
/// across probes of one deployment (one workspace per thread); every buffer
/// is warmed on first use and stays allocation-free afterwards.
struct SolveWorkspace {
  linalg::SparseMatrix pencil;
  linalg::SparseCholeskyFactor factor;
  std::vector<double> factor_scratch;
  linalg::Vector rhs;
  linalg::Vector theta;
  linalg::Vector solve_scratch;
  /// Per-tile temperature buffer for peak-only probes.
  linalg::Vector tiles;
  /// Scratch of the runaway eigensolve (tec::runaway_limit_ex) —
  /// pencil, factor and Lanczos basis, warmed on the first λ_m request of
  /// the pool and allocation-free afterwards.
  linalg::ShiftInvertLanczosWorkspace lanczos;
};

/// Immutable coupled system for a fixed deployment. Supply current remains a
/// free scalar parameter (single extra pin ⇒ all devices share one current,
/// Section III.B).
class ElectroThermalSystem {
 public:
  /// \p model must have been built with tec_link == device.thermal_link().
  /// Keeps a copy of the model. Throws std::invalid_argument if the model
  /// carries no TEC tiles and \p allow_no_tec is false.
  ElectroThermalSystem(thermal::PackageModel model, TecDeviceParams device,
                       bool allow_no_tec = false);

  /// As above, but adopt \p g instead of assembling it from the model's
  /// network — the incremental re-stamp fast path (tfc::engine), where G is
  /// produced in O(nnz) by ConductanceNetwork::conductance_matrix_extended.
  /// \p g must equal model.network().conductance_matrix() bit for bit
  /// (asserted in Debug builds).
  ElectroThermalSystem(thermal::PackageModel model, TecDeviceParams device,
                       linalg::SparseMatrix g);

  /// Convenience factory: build the package model of \p spec with TECs on
  /// \p deployment (may be empty; a virtual-grid mask within the spec's
  /// TEC-capable sites), install \p tile_powers (virtual grid), and wrap
  /// it. \p stages > 1 builds cascaded devices (see PackageModel::build).
  static ElectroThermalSystem assemble(std::shared_ptr<const thermal::StackSpec> spec,
                                       const TileMask& deployment,
                                       const linalg::Vector& tile_powers,
                                       const TecDeviceParams& device,
                                       std::size_t stages = 1);

  /// The same on the single-die package StackSpec::single_die(\p geometry).
  static ElectroThermalSystem assemble(const thermal::PackageGeometry& geometry,
                                       const TileMask& deployment,
                                       const linalg::Vector& tile_powers,
                                       const TecDeviceParams& device,
                                       std::size_t stages = 1);

  const thermal::PackageModel& model() const { return model_; }
  const TecDeviceParams& device() const { return device_; }
  std::size_t device_count() const { return model_.tec_tiles().size(); }
  std::size_t node_count() const { return model_.node_count(); }

  /// G of Eq. (5) (current-independent part, Peltier terms excluded).
  const linalg::SparseMatrix& matrix_g() const { return g_; }

  /// Diagonal of D of Eq. (5): +α on hot nodes, −α on cold nodes, 0 elsewhere.
  const linalg::Vector& d_diagonal() const { return d_diag_; }

  /// D as a sparse matrix.
  linalg::SparseMatrix matrix_d() const;

  /// System matrix G − i·D. Same sparsity pattern for every i (the diagonal
  /// update preserves G's pattern exactly).
  linalg::SparseMatrix system_matrix(double i) const;

  /// Symbolic Cholesky analysis of the pattern of G − i·D, shared by every
  /// current probe of this deployment. Computed on first use (thread-safe);
  /// copies of the system share the cached analysis.
  const linalg::SparseCholeskySymbolic& cholesky_symbolic() const;

  /// Factor G − i·D reusing the shared symbolic analysis — the numeric-only
  /// fast path behind solve(). Returns nullopt when the matrix is not
  /// positive definite (i ≥ λ_m) or i < 0. Safe to call concurrently.
  std::optional<linalg::SparseCholeskyFactor> factorize(double i) const;

  /// Factor G − i·D into caller-owned storage (pencil, factor and sweep
  /// scratch live in \p ws) — the zero-allocation variant of factorize().
  /// Returns false when the matrix is not positive definite (i ≥ λ_m) or
  /// i < 0, leaving ws.factor invalid. Identical arithmetic to factorize().
  bool factorize_into(double i, SolveWorkspace& ws) const;

  /// Power vector p(i): tile powers on silicon nodes plus r·i²/2 on every
  /// hot/cold node (paper's definition of p).
  linalg::Vector power(double i) const;

  /// Full right-hand side p(i) + g_amb·θ_amb.
  linalg::Vector rhs(double i) const;

  /// rhs(i) into caller-owned storage (resized to node_count()); identical
  /// arithmetic to rhs().
  void rhs_into(double i, linalg::Vector& out) const;

  /// Right-hand side for the power map \p tile_powers [W per tile, virtual
  /// grid] instead of the installed one, into caller-owned storage (resized
  /// to node_count()): the ambient legs g_amb·θ_amb, each tile's power on its
  /// silicon node, and r·i²/2 on every hot/cold plate, in that order. Throws
  /// std::invalid_argument on a tile-count mismatch.
  void rhs_into(double i, const linalg::Vector& tile_powers, linalg::Vector& out) const;

  /// Right-hand side of dθ/di = H(i)·(D·θ + p′(i)) into caller-owned storage
  /// (resized to node_count()): D·θ plus p′ = r·i on every hot/cold node.
  /// \p theta must be the solution at \p i and must not alias \p out.
  void theta_derivative_rhs_into(double i, const linalg::Vector& theta,
                                 linalg::Vector& out) const;

  /// Solve (G − i·D)θ = p(i) by sparse Cholesky through the shared symbolic
  /// analysis. Returns nullopt when the matrix is no longer positive definite
  /// (i ≥ λ_m: thermal runaway) or i < 0. Passing a caller-owned \p ws
  /// reuses its pencil/factor/rhs buffers instead of allocating per call
  /// (same arithmetic, bit-identical results); the returned OperatingPoint
  /// still owns its vectors.
  std::optional<OperatingPoint> solve(double i, SolveWorkspace* ws = nullptr) const;

  /// Σ over devices of Eq. (3) evaluated at the solved temperatures.
  double tec_input_power(double i, const linalg::Vector& theta) const;

  /// Energy ledger of the solved temperatures \p theta at current \p i —
  /// the conservation certificate behind tfc::obs::health (O(n), one pass
  /// over the ambient legs and the Peltier diagonal). Throws
  /// std::invalid_argument on theta size mismatch.
  EnergyBalance energy_balance(double i, const linalg::Vector& theta) const;

 private:
  struct SymbolicCache;

  thermal::PackageModel model_;
  TecDeviceParams device_;
  linalg::SparseMatrix g_;
  linalg::Vector d_diag_;
  std::shared_ptr<SymbolicCache> symbolic_cache_;
};

}  // namespace tfc::tec
