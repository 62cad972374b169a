#include "tec/electro_thermal.h"

#include <atomic>
#include <cmath>
#include <mutex>
#include <stdexcept>

#include "obs/trace.h"

namespace tfc::tec {

namespace {

std::uint64_t next_pencil_id() {
  static std::atomic<std::uint64_t> last{0};
  return last.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

/// Lazily computed symbolic analysis, shared by copies of the system (the
/// pattern is a function of the deployment only, never of the current).
struct ElectroThermalSystem::SymbolicCache {
  std::once_flag once;
  std::unique_ptr<const linalg::SparseCholeskySymbolic> symbolic;
};

ElectroThermalSystem::ElectroThermalSystem(thermal::PackageModel model,
                                           TecDeviceParams device, bool allow_no_tec)
    : model_(std::move(model)), device_(device),
      symbolic_cache_(std::make_shared<SymbolicCache>()), pencil_id_(next_pencil_id()) {
  device_.validate();
  if (!allow_no_tec && model_.tec_tiles().empty()) {
    throw std::invalid_argument("ElectroThermalSystem: model carries no TEC tiles");
  }
  g_ = model_.network().conductance_matrix();
  tile_powers_ = model_.tile_powers();
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

bool ElectroThermalSystem::factorize_into(double i, SolveWorkspace& ws) const {
  if (i < 0.0) return false;
  if (holds_factor(ws, i)) return true;
  ws.forget_factor();
  const linalg::SparseMatrix* m = &g_;
  if (i != 0.0) {
    ws.pencil.assign_add_scaled_diagonal(g_, d_diag_, -i);
    m = &ws.pencil;
  }
  const bool ok = cholesky_symbolic().refactorize_into(*m, ws.factor, ws.factor_scratch);
  if (ok) {
    ws.factor_pencil = pencil_id_;
    ws.factor_current = i;
  }
  return ok;
}

linalg::Vector ElectroThermalSystem::rhs(double i) const {
  linalg::Vector r;
  rhs_into(i, r);
  return r;
}

void ElectroThermalSystem::rhs_into(double i, linalg::Vector& out) const {
  rhs_into(i, tile_powers_, out);
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

void ElectroThermalSystem::theta_curvature_rhs_into(const linalg::Vector& dtheta,
                                                    linalg::Vector& out) const {
  const std::size_t n = dtheta.size();
  out.resize(n);
  for (std::size_t k = 0; k < n; ++k) out[k] = 2.0 * d_diag_[k] * dtheta[k];
  // p″: d²/di² of the Joule halves r·i²/2 → r at each plate.
  const double r = device_.resistance;
  for (std::size_t hot : model_.hot_nodes()) out[hot] += r;
  for (std::size_t cold : model_.cold_nodes()) out[cold] += r;
}

std::optional<OperatingPoint> ElectroThermalSystem::solve(double i,
                                                          SolveWorkspace* ws) const {
  if (i < 0.0) return std::nullopt;

  TFC_SPAN("et_solve");
  TFC_SPAN_ATTR("n", model_.node_count());
  TFC_SPAN_ATTR("current_a", i);
  SolveWorkspace local;
  SolveWorkspace& w = ws != nullptr ? *ws : local;
  rhs_into(i, w.rhs);
  // The factorization doubles as the positive-definiteness probe.
  if (!factorize_into(i, w)) return std::nullopt;
  linalg::Vector theta;
  w.factor.solve_into(w.rhs, theta, w.solve_scratch);
  return operating_point(i, std::move(theta));
}

OperatingPoint ElectroThermalSystem::operating_point(double i, linalg::Vector theta) const {
  OperatingPoint op;
  op.current = i;
  op.theta = std::move(theta);
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
