#include "tec/electro_thermal.h"

#include <cassert>
#include <cmath>
#include <mutex>
#include <stdexcept>

#include "obs/trace.h"

namespace tfc::tec {

/// Lazily computed symbolic analysis, shared by copies of the system (the
/// pattern is a function of the deployment only, never of the current).
struct ElectroThermalSystem::SymbolicCache {
  std::once_flag once;
  std::unique_ptr<const linalg::SparseCholeskySymbolic> symbolic;
};

ElectroThermalSystem::ElectroThermalSystem(thermal::PackageModel model,
                                           TecDeviceParams device, bool allow_no_tec)
    : model_(std::move(model)), device_(device),
      symbolic_cache_(std::make_shared<SymbolicCache>()) {
  device_.validate();
  if (!allow_no_tec && model_.tec_tiles().empty()) {
    throw std::invalid_argument("ElectroThermalSystem: model carries no TEC tiles");
  }
  g_ = model_.network().conductance_matrix();
  d_diag_ = linalg::Vector(model_.node_count());
  for (std::size_t hot : model_.hot_nodes()) d_diag_[hot] = +device_.seebeck;
  for (std::size_t cold : model_.cold_nodes()) d_diag_[cold] = -device_.seebeck;
}

ElectroThermalSystem::ElectroThermalSystem(thermal::PackageModel model,
                                           TecDeviceParams device,
                                           linalg::SparseMatrix g)
    : model_(std::move(model)), device_(device), g_(std::move(g)),
      symbolic_cache_(std::make_shared<SymbolicCache>()) {
  device_.validate();
  if (model_.tec_tiles().empty()) {
    throw std::invalid_argument("ElectroThermalSystem: model carries no TEC tiles");
  }
#ifndef NDEBUG
  {
    const linalg::SparseMatrix fresh = model_.network().conductance_matrix();
    assert(g_.row_ptr() == fresh.row_ptr() && g_.col_idx() == fresh.col_idx() &&
           g_.values() == fresh.values());
  }
#endif
  d_diag_ = linalg::Vector(model_.node_count());
  for (std::size_t hot : model_.hot_nodes()) d_diag_[hot] = +device_.seebeck;
  for (std::size_t cold : model_.cold_nodes()) d_diag_[cold] = -device_.seebeck;
}

ElectroThermalSystem ElectroThermalSystem::assemble(
    std::shared_ptr<const thermal::StackSpec> spec, const TileMask& deployment,
    const linalg::Vector& tile_powers, const TecDeviceParams& device,
    std::size_t stages) {
  TFC_SPAN("assemble");
  thermal::PackageModel model = thermal::PackageModel::build(
      std::move(spec), deployment, device.thermal_link(), stages);
  model.set_tile_powers(tile_powers);
  const bool no_tec = deployment.grid_size() == 0 || deployment.empty();
  return ElectroThermalSystem(std::move(model), device, /*allow_no_tec=*/no_tec);
}

ElectroThermalSystem ElectroThermalSystem::assemble(
    const thermal::PackageGeometry& geometry, const TileMask& deployment,
    const linalg::Vector& tile_powers, const TecDeviceParams& device,
    std::size_t stages) {
  return assemble(std::make_shared<const thermal::StackSpec>(
                      thermal::StackSpec::single_die(geometry)),
                  deployment, tile_powers, device, stages);
}

linalg::SparseMatrix ElectroThermalSystem::matrix_d() const {
  linalg::TripletList t(d_diag_.size(), d_diag_.size());
  for (std::size_t i = 0; i < d_diag_.size(); ++i) {
    if (d_diag_[i] != 0.0) t.add(i, i, d_diag_[i]);
  }
  return linalg::SparseMatrix::from_triplets(t);
}

linalg::SparseMatrix ElectroThermalSystem::system_matrix(double i) const {
  if (i == 0.0) return g_;
  // Pattern-preserving diagonal update: every i yields G's exact pattern,
  // which is what keeps the cached symbolic analysis valid.
  return g_.add_scaled_diagonal(d_diag_, -i);
}

const linalg::SparseCholeskySymbolic& ElectroThermalSystem::cholesky_symbolic() const {
  auto& cache = *symbolic_cache_;
  std::call_once(cache.once, [&] {
    cache.symbolic = std::make_unique<const linalg::SparseCholeskySymbolic>(
        linalg::SparseCholeskySymbolic::analyze(g_));
  });
  return *cache.symbolic;
}

std::optional<linalg::SparseCholeskyFactor> ElectroThermalSystem::factorize(
    double i) const {
  if (i < 0.0) return std::nullopt;
  const linalg::SparseMatrix m = system_matrix(i);
  const auto& symbolic = cholesky_symbolic();
  if (!symbolic.pattern_matches(m)) {
    // Cannot happen for a well-formed G (full structural diagonal), but fall
    // back to a one-shot factorization rather than fail.
    return linalg::SparseCholeskyFactor::factor(m);
  }
  return symbolic.refactorize(m);
}

bool ElectroThermalSystem::factorize_into(double i, SolveWorkspace& ws) const {
  if (i < 0.0) return false;
  const auto& symbolic = cholesky_symbolic();
  const linalg::SparseMatrix* m = &g_;
  if (i != 0.0) {
    ws.pencil.assign_add_scaled_diagonal(g_, d_diag_, -i);
    m = &ws.pencil;
  }
  if (!symbolic.pattern_matches(*m)) {
    // Cannot happen for a well-formed G (full structural diagonal), but fall
    // back to a one-shot factorization rather than fail.
    auto f = linalg::SparseCholeskyFactor::factor(*m);
    if (!f) return false;
    ws.factor = std::move(*f);
    return true;
  }
  return symbolic.refactorize_into(*m, ws.factor, ws.factor_scratch);
}

linalg::Vector ElectroThermalSystem::power(double i) const {
  linalg::Vector p = model_.network().power_vector();
  const double joule = 0.5 * device_.resistance * i * i;
  for (std::size_t hot : model_.hot_nodes()) p[hot] += joule;
  for (std::size_t cold : model_.cold_nodes()) p[cold] += joule;
  return p;
}

linalg::Vector ElectroThermalSystem::rhs(double i) const {
  linalg::Vector r;
  rhs_into(i, r);
  return r;
}

void ElectroThermalSystem::rhs_into(double i, linalg::Vector& out) const {
  const auto& net = model_.network();
  const std::size_t n = net.node_count();
  out.resize(n);
  for (std::size_t k = 0; k < n; ++k) out[k] = net.power(k);
  const double joule = 0.5 * device_.resistance * i * i;
  for (std::size_t hot : model_.hot_nodes()) out[hot] += joule;
  for (std::size_t cold : model_.cold_nodes()) out[cold] += joule;
  const double ambient = model_.ambient();
  for (std::size_t k = 0; k < n; ++k) {
    const double g = net.ambient_conductance(k);
    if (g > 0.0) out[k] += g * ambient;
  }
}

void ElectroThermalSystem::rhs_into(double i, const linalg::Vector& tile_powers,
                                    linalg::Vector& out) const {
  const std::size_t tiles = model_.tile_count();
  if (tile_powers.size() != tiles) {
    throw std::invalid_argument(
        "ElectroThermalSystem::rhs_into: tile power size mismatch");
  }
  const auto& net = model_.network();
  const std::size_t n = net.node_count();
  out.resize(n);
  const double ambient = model_.ambient();
  for (std::size_t k = 0; k < n; ++k) {
    const double g = net.ambient_conductance(k);
    out[k] = g > 0.0 ? g * ambient : 0.0;
  }
  const std::size_t cols = model_.tile_cols();
  for (std::size_t t = 0; t < tiles; ++t) {
    out[model_.silicon_node({t / cols, t % cols})] += tile_powers[t];
  }
  const double joule = 0.5 * device_.resistance * i * i;
  for (std::size_t hot : model_.hot_nodes()) out[hot] += joule;
  for (std::size_t cold : model_.cold_nodes()) out[cold] += joule;
}

void ElectroThermalSystem::theta_derivative_rhs_into(double i,
                                                     const linalg::Vector& theta,
                                                     linalg::Vector& out) const {
  const std::size_t n = theta.size();
  out.resize(n);
  for (std::size_t k = 0; k < n; ++k) out[k] = d_diag_[k] * theta[k];
  // p′(i): d/di of the Joule halves r·i²/2 → r·i at each plate.
  const double ri = device_.resistance * i;
  for (std::size_t hot : model_.hot_nodes()) out[hot] += ri;
  for (std::size_t cold : model_.cold_nodes()) out[cold] += ri;
}

std::optional<OperatingPoint> ElectroThermalSystem::solve(double i,
                                                          SolveWorkspace* ws) const {
  if (i < 0.0) return std::nullopt;

  TFC_SPAN("et_solve");
  TFC_SPAN_ATTR("n", model_.node_count());
  TFC_SPAN_ATTR("current_a", i);
  OperatingPoint op;
  op.current = i;

  SolveWorkspace local;
  SolveWorkspace& w = ws != nullptr ? *ws : local;
  rhs_into(i, w.rhs);
  // The factorization doubles as the positive-definiteness probe.
  if (!factorize_into(i, w)) return std::nullopt;
  w.factor.solve_into(w.rhs, op.theta, w.solve_scratch);

  op.tile_temperatures = model_.tile_temperatures(op.theta);
  op.peak_tile_temperature = linalg::max_entry(op.tile_temperatures);
  op.tec_input_power = tec_input_power(i, op.theta);
  return op;
}

double ElectroThermalSystem::tec_input_power(double i, const linalg::Vector& theta) const {
  if (theta.size() != model_.node_count()) {
    throw std::invalid_argument("tec_input_power: theta size mismatch");
  }
  double acc = 0.0;
  const auto& hot = model_.hot_nodes();
  const auto& cold = model_.cold_nodes();
  for (std::size_t k = 0; k < hot.size(); ++k) {
    acc += device_.input_power(i, theta[hot[k]] - theta[cold[k]]);
  }
  return acc;
}

EnergyBalance ElectroThermalSystem::energy_balance(double i,
                                                   const linalg::Vector& theta) const {
  if (theta.size() != model_.node_count()) {
    throw std::invalid_argument("energy_balance: theta size mismatch");
  }
  EnergyBalance eb;
  eb.source_w = model_.network().total_power();
  const double joule = 0.5 * device_.resistance * i * i;
  eb.joule_w =
      joule * static_cast<double>(model_.hot_nodes().size() + model_.cold_nodes().size());
  // Row-summing (G − i·D)θ = p + g_amb·θ_amb kills every pairwise
  // conductance (each appears +g/−g), leaving exactly
  //   Σ g_amb(θ − θ_amb) = Σ p + i·Σ d·θ.
  double peltier = 0.0;
  for (std::size_t k = 0; k < d_diag_.size(); ++k) peltier += d_diag_[k] * theta[k];
  eb.peltier_w = i * peltier;
  eb.injected_w = eb.source_w + eb.joule_w + eb.peltier_w;
  eb.rejected_w =
      model_.network().ambient_heat_flow(theta, model_.ambient());
  eb.residual_w = eb.rejected_w - eb.injected_w;
  eb.relative = eb.injected_w != 0.0 ? std::abs(eb.residual_w / eb.injected_w) : 0.0;
  return eb;
}

}  // namespace tfc::tec
