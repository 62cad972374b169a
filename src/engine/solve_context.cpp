#include "engine/solve_context.h"

#include <chrono>
#include <stdexcept>
#include <string>

#include "engine/audit.h"
#include "linalg/cg.h"
#include "obs/obs.h"
#include "obs/prometheus.h"
#include "tec/runaway.h"

namespace tfc::engine {

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Histogram name `engine.solve_ms{backend=...}`; built once per backend.
const std::string& solve_histogram_name(Backend backend) {
  static const std::string cholesky =
      obs::labeled_name("engine.solve_ms", {{"backend", "cholesky"}});
  static const std::string cg = obs::labeled_name("engine.solve_ms", {{"backend", "cg"}});
  switch (backend) {
    case Backend::kCg: return cg;
    case Backend::kCholesky: break;
  }
  return cholesky;
}

void record_solve(Backend backend, std::chrono::steady_clock::time_point t0) {
  obs::MetricsRegistry::global()
      .histogram(solve_histogram_name(backend))
      .record(ms_since(t0));
}

/// Deployment mask normalized to the model's virtual grid (an unshaped
/// default mask means "no TECs").
TileMask shaped(const TileMask& mask, const thermal::PackageModel& model) {
  if (mask.grid_size() == 0) return TileMask(model.tile_rows(), model.tile_cols());
  if (mask.rows() != model.tile_rows() || mask.cols() != model.tile_cols()) {
    throw std::invalid_argument("SolveContext: deployment shape mismatch");
  }
  return mask;
}

}  // namespace

SolveContext::SolveContext(std::shared_ptr<const thermal::StackSpec> spec,
                           const TileMask& deployment, const linalg::Vector& tile_powers,
                           const tec::TecDeviceParams& device, EngineOptions options,
                           std::size_t stages)
    : options_(options),
      system_(tec::ElectroThermalSystem::assemble(std::move(spec), deployment,
                                                  tile_powers, device, stages)) {}

SolveContext::SolveContext(const thermal::PackageGeometry& geometry,
                           const TileMask& deployment, const linalg::Vector& tile_powers,
                           const tec::TecDeviceParams& device, EngineOptions options,
                           std::size_t stages)
    : SolveContext(std::make_shared<const thermal::StackSpec>(
                       thermal::StackSpec::single_die(geometry)),
                   deployment, tile_powers, device, options, stages) {}

SolveContext::SolveContext(tec::ElectroThermalSystem system, EngineOptions options)
    : options_(options), system_(std::move(system)) {}

void SolveContext::extend(const TileMask& tiles) {
  const thermal::PackageModel& model = system_.model();
  TileMask delta(model.tile_rows(), model.tile_cols());
  bool any = false;
  for (Tile t : shaped(tiles, model).tiles()) {
    if (!model.deployment().test(t)) {
      delta.set(t);
      any = true;
    }
  }
  if (!any) return;
  invalidate_runaway_cache();

  if (!options_.incremental_restamp) {
    TileMask next = model.deployment();
    next |= delta;
    rebuild(next);
    return;
  }
  TFC_SPAN("engine_restamp_incremental");
  TFC_SPAN_ATTR("added_tiles", delta.count());
  obs::MetricsRegistry::global().counter("engine.restamp.incremental").increment();
  // extend_tec replays the node/edge lists in O(model); the conductance
  // matrix is then re-assembled in O(nnz) — only the rows touched by the new
  // devices are restamped, everything else is carried over bitwise from the
  // previous G through the node remap.
  thermal::TecExtendDelta remap;
  thermal::PackageModel next = model.extend_tec(delta, &remap);
  linalg::SparseMatrix g = next.network().conductance_matrix_extended(
      system_.matrix_g(), remap.old_to_new, remap.dirty_rows);
  system_ = tec::ElectroThermalSystem(std::move(next), system_.device(), std::move(g));
}

void SolveContext::set_deployment(const TileMask& deployment) {
  const TileMask target = shaped(deployment, system_.model());
  if (this->deployment().subset_of(target)) {
    extend(target);
    return;
  }
  invalidate_runaway_cache();
  rebuild(target);
}

void SolveContext::rebuild(const TileMask& deployment) {
  TFC_SPAN("engine_restamp_full");
  obs::MetricsRegistry::global().counter("engine.restamp.full").increment();
  const thermal::PackageModel& model = system_.model();
  system_ = tec::ElectroThermalSystem::assemble(model.spec(), deployment,
                                                model.tile_powers(), system_.device(),
                                                model.tec_stages());
}

void SolveContext::invalidate_runaway_cache() {
  std::lock_guard<std::mutex> lock(runaway_mutex_);
  runaway_cached_ = false;
  runaway_cache_.reset();
}

std::optional<double> SolveContext::probe_peak(double i, double* slope) const {
  TFC_SPAN("engine_probe");
  const auto t0 = std::chrono::steady_clock::now();
  WorkspaceLease ws(*this);
  std::optional<double> peak;
  if (system_.factorize_into(i, *ws)) {
    const thermal::PackageModel& model = system_.model();
    system_.rhs_into(i, ws->rhs);
    ws->factor.solve_into(ws->rhs, ws->theta, ws->solve_scratch);
    model.tile_temperatures_into(ws->theta, ws->tiles);
    const std::size_t hottest = linalg::argmax(ws->tiles);
    peak = ws->tiles[hottest];
    if (slope != nullptr) {
      // dθ/di = H·(D·θ + p′), solved in place in the rhs buffer.
      system_.theta_derivative_rhs_into(i, ws->theta, ws->rhs);
      ws->factor.solve_into(ws->rhs, ws->rhs, ws->solve_scratch);
      model.tile_temperatures_into(ws->rhs, ws->tiles);
      *slope = ws->tiles[hottest];
    }
  }
  record_solve(Backend::kCholesky, t0);
  return peak;
}

std::optional<tec::OperatingPoint> SolveContext::solve_probe(double i) const {
  const auto t0 = std::chrono::steady_clock::now();
  WorkspaceLease ws(*this);
  auto op = system_.solve(i, ws.get());
  record_solve(Backend::kCholesky, t0);
  if (op.has_value()) maybe_audit(*op);
  return op;
}

std::optional<tec::OperatingPoint> SolveContext::solve(double i) const {
  return solve_backend(options_.backend, i);
}

std::optional<tec::OperatingPoint> SolveContext::solve_backend(Backend backend,
                                                               double i) const {
  switch (backend) {
    case Backend::kCholesky: return solve_probe(i);
    case Backend::kCg: return solve_cg(i);
  }
  return solve_probe(i);
}

namespace {

/// Assemble the full OperatingPoint from a solved temperature vector.
tec::OperatingPoint finish_point(const tec::ElectroThermalSystem& system, double i,
                                 linalg::Vector theta) {
  tec::OperatingPoint op;
  op.current = i;
  op.theta = std::move(theta);
  op.tile_temperatures = system.model().tile_temperatures(op.theta);
  op.peak_tile_temperature = linalg::max_entry(op.tile_temperatures);
  op.tec_input_power = system.tec_input_power(i, op.theta);
  return op;
}

}  // namespace

std::optional<tec::OperatingPoint> SolveContext::solve_cg(double i) const {
  if (i < 0.0) return std::nullopt;
  const auto t0 = std::chrono::steady_clock::now();
  const linalg::SparseMatrix m = system_.system_matrix(i);
  linalg::Preconditioner precond;
  try {
    precond = linalg::jacobi_preconditioner(m);
  } catch (const std::invalid_argument&) {
    // A non-positive pencil diagonal certifies loss of positive
    // definiteness (i past λ_m pushes hot-node diagonals negative).
    record_solve(Backend::kCg, t0);
    return std::nullopt;
  }
  linalg::CgOptions co;
  co.rel_tol = options_.cg_rel_tol;
  co.max_iterations = options_.cg_max_iterations;
  const linalg::Vector b = system_.rhs(i);
  const linalg::CgResult r = linalg::conjugate_gradient(m, b, precond, co);
  record_solve(Backend::kCg, t0);
  if (!r.converged) {
    if (r.iterations < co.max_iterations) return std::nullopt;  // p·Ap ≤ 0 breakdown
    // First-class non-convergence signal: count it, leave a degraded audit
    // record showing how wrong the abandoned θ was, then throw a typed error
    // instead of returning a silently-inaccurate operating point.
    obs::MetricsRegistry::global().counter("engine.cg.nonconverged").increment();
    const double rel =
        linalg::norm2(b) > 0.0 ? r.residual_norm / linalg::norm2(b) : r.residual_norm;
    if (options_.audit.enabled) {
      record_audit_metrics(
          audit_point(system_, finish_point(system_, i, r.x), cached_runaway_limit(),
                      /*degraded=*/true),
          options_.audit.tolerances);
    }
    throw CgNonConvergedError(r.iterations, rel);
  }
  auto op = finish_point(system_, i, r.x);
  maybe_audit(op);
  return op;
}

void SolveContext::maybe_audit(const tec::OperatingPoint& op) const {
  const AuditOptions& audit_opts = options_.audit;
  if (!audit_opts.enabled) return;
  const std::uint64_t seq = audit_seq_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t every = audit_opts.sample_every == 0 ? 1 : audit_opts.sample_every;
  if (seq % every != 0) return;
  TFC_SPAN("engine_audit");
  record_audit_metrics(audit_point(system_, op, cached_runaway_limit()),
                       audit_opts.tolerances);
}

obs::health::Certificate SolveContext::audit(const tec::OperatingPoint& op) const {
  obs::health::Certificate cert = audit_point(system_, op, cached_runaway_limit());
  record_audit_metrics(cert, options_.audit.tolerances);
  return cert;
}

std::optional<double> SolveContext::cached_runaway_limit() const {
  std::lock_guard<std::mutex> lock(runaway_mutex_);
  return runaway_cache_;
}

std::optional<double> SolveContext::runaway_limit() const {
  {
    std::lock_guard<std::mutex> lock(runaway_mutex_);
    if (runaway_cached_) return runaway_cache_;
  }
  // Draw the Lanczos scratch from the pooled workspaces so repeated λ_m
  // requests of one context run allocation-free.
  WorkspaceLease ws(*this);
  const tec::RunawayResult r = tec::runaway_limit_ex(system_, &ws->lanczos);
  obs::MetricsRegistry::global().counter("engine.runaway.sparse").increment();
  std::lock_guard<std::mutex> lock(runaway_mutex_);
  if (!runaway_cached_) {
    runaway_cached_ = true;
    runaway_cache_ = r.lambda_m;
  }
  return runaway_cache_;
}

tec::SolveWorkspace* SolveContext::acquire_workspace() const {
  std::lock_guard<std::mutex> lock(ws_mutex_);
  if (!ws_free_.empty()) {
    tec::SolveWorkspace* ws = ws_free_.back();
    ws_free_.pop_back();
    return ws;
  }
  ws_all_.push_back(std::make_unique<tec::SolveWorkspace>());
  return ws_all_.back().get();
}

void SolveContext::release_workspace(tec::SolveWorkspace* ws) const {
  std::lock_guard<std::mutex> lock(ws_mutex_);
  ws_free_.push_back(ws);
}

}  // namespace tfc::engine
