/// \file electro_thermal.h
/// \brief The coupled electro-thermal system (G − i·D)·θ = p(i) of
/// Eq. (4)/(5).
///
/// Wraps a thermal::PackageModel whose TEC tiles were stamped with the
/// device's conductances, and adds the current-dependent parts: the Peltier
/// coupling matrix D (diagonal, +α on HOT rows, −α on CLD rows) and the
/// Joule sources r·i²/2 at both plates of every device. Factorizations of
/// G − i·D land in a caller-owned SolveWorkspace that records which
/// (pencil, current) its factor holds, so asking again for the same factor
/// (the λ_m solve's G, then the current search's i = 0 probe) costs nothing.
#pragma once

#include <cstdint>
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
///
/// The workspace records which factor it holds, so a probe at the current
/// the factor was made for skips the refactorization: the engine's λ_m
/// solve leaves G's factor here for the current search's first probe.
struct SolveWorkspace {
  linalg::SparseMatrix pencil;
  linalg::SparseCholeskyFactor factor;
  /// `factor` holds G − factor_current·D of the pencil whose
  /// ElectroThermalSystem::pencil_id() is factor_pencil (0: nothing).
  /// ElectroThermalSystem::factorize_into() keeps the record.
  std::uint64_t factor_pencil = 0;
  double factor_current = 0.0;
  /// Forget the record; code that writes `factor` other than through
  /// factorize_into() must call this first.
  void forget_factor() { factor_pencil = 0; }
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

  /// System matrix G − i·D. Same sparsity pattern for every i (the diagonal
  /// update preserves G's pattern exactly).
  linalg::SparseMatrix system_matrix(double i) const;

  /// Identity of the pencil (G, D): unique to each constructed system and
  /// shared by its copies, which hold the same G and D. Never 0. A re-stamped
  /// deployment is a new system, so its id differs.
  std::uint64_t pencil_id() const { return pencil_id_; }

  /// True when \p ws already holds the factor of G − i·D of this pencil —
  /// factorize_into(i, ws) then skips the refactorization.
  bool holds_factor(const SolveWorkspace& ws, double i) const {
    return ws.factor_pencil == pencil_id_ && ws.factor_current == i;
  }

  /// Symbolic Cholesky analysis of the pattern of G − i·D, shared by every
  /// current probe of this deployment. Computed on first use (thread-safe);
  /// copies of the system share the cached analysis.
  const linalg::SparseCholeskySymbolic& cholesky_symbolic() const;

  /// Factor G − i·D into caller-owned storage (pencil, factor and sweep
  /// scratch live in \p ws) through the shared symbolic analysis — the
  /// numeric-only path behind every pencil factorization. Skips the work
  /// when \p ws already holds that factor (holds_factor()). Returns false
  /// when the matrix is not positive definite (i ≥ λ_m) or i < 0, leaving
  /// ws.factor invalid and its record cleared. Safe to call concurrently
  /// with distinct workspaces.
  bool factorize_into(double i, SolveWorkspace& ws) const;

  /// Full right-hand side p(i) + g_amb·θ_amb for the installed power map.
  linalg::Vector rhs(double i) const;

  /// rhs(i) into caller-owned storage (resized to node_count()).
  void rhs_into(double i, linalg::Vector& out) const;

  /// Right-hand side p(i) + g_amb·θ_amb for the power map \p tile_powers [W
  /// per tile, virtual grid], into caller-owned storage (resized to
  /// node_count()): the ambient legs g_amb·θ_amb, each tile's power on its
  /// silicon node, and the Joule half r·i²/2 on every hot/cold plate (the
  /// paper's p(i)). Throws std::invalid_argument on a tile-count mismatch.
  void rhs_into(double i, const linalg::Vector& tile_powers, linalg::Vector& out) const;

  /// Right-hand side of dθ/di = H(i)·(D·θ + p′(i)) into caller-owned storage
  /// (resized to node_count()): D·θ plus p′ = r·i on every hot/cold node.
  /// \p theta must be the solution at \p i and must not alias \p out.
  void theta_derivative_rhs_into(double i, const linalg::Vector& theta,
                                 linalg::Vector& out) const;

  /// Right-hand side of d²θ/di² = H(i)·(2D·θ′ + p″) into caller-owned storage
  /// (resized to node_count()): 2D·θ′ plus p″ = r on every hot/cold node.
  /// \p dtheta must be dθ/di at the probed current and must not alias \p out.
  void theta_curvature_rhs_into(const linalg::Vector& dtheta, linalg::Vector& out) const;

  /// Solve (G − i·D)θ = p(i) by sparse Cholesky through the shared symbolic
  /// analysis. Returns nullopt when the matrix is no longer positive definite
  /// (i ≥ λ_m: thermal runaway) or i < 0. Passing a caller-owned \p ws
  /// reuses its pencil/factor/rhs buffers instead of allocating per call
  /// (same arithmetic, bit-identical results); the returned OperatingPoint
  /// still owns its vectors.
  std::optional<OperatingPoint> solve(double i, SolveWorkspace* ws = nullptr) const;

  /// The operating point of node temperatures \p theta solved at current
  /// \p i (by solve() or any other solver): tile temperatures, their peak
  /// and Σ Eq. (3).
  OperatingPoint operating_point(double i, linalg::Vector theta) const;

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
  /// The model's installed tile power map, gathered once for rhs_into().
  linalg::Vector tile_powers_;
  std::shared_ptr<SymbolicCache> symbolic_cache_;
  std::uint64_t pencil_id_;
};

}  // namespace tfc::tec
