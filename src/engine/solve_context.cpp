#include "engine/solve_context.h"

#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "engine/audit.h"
#include "linalg/cg.h"
#include "obs/obs.h"
#include "tec/runaway.h"

namespace tfc::engine {

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

void record_solve(std::chrono::steady_clock::time_point t0) {
  obs::MetricsRegistry::global().histogram("engine.solve_ms").record(ms_since(t0));
}

/// Counts engine.factor_reused when \p ws already holds the factor a probe
/// or solve at \p i needs (factorize_into then skips the refactorization).
void note_factor_reuse(const tec::ElectroThermalSystem& system,
                       const tec::SolveWorkspace& ws, double i) {
  if (system.holds_factor(ws, i)) {
    obs::MetricsRegistry::global().counter("engine.factor_reused").increment();
  }
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

std::string cg_message(std::size_t iterations, double rel_residual) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "cg cross-check failed to converge: %zu iterations, rel residual %.3e",
                iterations, rel_residual);
  return buf;
}

}  // namespace

CgNonConvergedError::CgNonConvergedError(std::size_t iterations, double rel_residual)
    : std::runtime_error(cg_message(iterations, rel_residual)),
      iterations_(iterations),
      rel_residual_(rel_residual) {}

SolveContext::SolveContext(std::shared_ptr<const thermal::StackSpec> spec,
                           const TileMask& deployment, const linalg::Vector& tile_powers,
                           const tec::TecDeviceParams& device, std::size_t stages)
    : system_(tec::ElectroThermalSystem::assemble(std::move(spec), deployment,
                                                  tile_powers, device, stages)) {}

SolveContext::SolveContext(const thermal::PackageGeometry& geometry,
                           const TileMask& deployment, const linalg::Vector& tile_powers,
                           const tec::TecDeviceParams& device, std::size_t stages)
    : SolveContext(std::make_shared<const thermal::StackSpec>(
                       thermal::StackSpec::single_die(geometry)),
                   deployment, tile_powers, device, stages) {}

SolveContext::SolveContext(tec::ElectroThermalSystem system) : system_(std::move(system)) {}

void SolveContext::set_deployment(const TileMask& deployment) {
  const thermal::PackageModel& model = system_.model();
  const TileMask target = shaped(deployment, model);
  if (target == model.deployment()) return;
  TFC_SPAN("engine_restamp");
  TFC_SPAN_ATTR("tecs", target.count());
  obs::MetricsRegistry::global().counter("engine.restamps").increment();
  invalidate_runaway_cache();
  system_ = tec::ElectroThermalSystem::assemble(model.spec(), target, model.tile_powers(),
                                                system_.device(), model.tec_stages());
}

void SolveContext::invalidate_runaway_cache() {
  std::lock_guard<std::mutex> lock(runaway_mutex_);
  runaway_cached_ = false;
  runaway_cache_.reset();
}

std::optional<PeakProbe> SolveContext::probe_peak(double i) const {
  TFC_SPAN("engine_probe");
  const auto t0 = std::chrono::steady_clock::now();
  WorkspaceLease ws(*this);
  std::optional<PeakProbe> probe;
  note_factor_reuse(system_, *ws, i);
  if (system_.factorize_into(i, *ws)) {
    const thermal::PackageModel& model = system_.model();
    system_.rhs_into(i, ws->rhs);
    ws->factor.solve_into(ws->rhs, ws->theta, ws->solve_scratch);
    model.tile_temperatures_into(ws->theta, ws->tiles);
    PeakProbe p;
    p.tile = linalg::argmax(ws->tiles);
    p.peak = ws->tiles[p.tile];
    const std::size_t node = model.silicon_node({p.tile / model.tile_cols(),
                                                 p.tile % model.tile_cols()});
    // θ′ = H·(D·θ + p′), solved in place in the rhs buffer.
    system_.theta_derivative_rhs_into(i, ws->theta, ws->rhs);
    ws->factor.solve_into(ws->rhs, ws->rhs, ws->solve_scratch);
    p.slope = ws->rhs[node];
    // θ″ = H·(2D·θ′ + p″), solved in place in the θ buffer.
    system_.theta_curvature_rhs_into(ws->rhs, ws->theta);
    ws->factor.solve_into(ws->theta, ws->theta, ws->solve_scratch);
    p.curvature = ws->theta[node];
    probe = p;
  }
  record_solve(t0);
  return probe;
}

std::optional<tec::OperatingPoint> SolveContext::solve(double i) const {
  const auto t0 = std::chrono::steady_clock::now();
  WorkspaceLease ws(*this);
  note_factor_reuse(system_, *ws, i);
  auto op = system_.solve(i, ws.get());
  record_solve(t0);
  if (op.has_value()) maybe_audit(*op);
  return op;
}

std::optional<tec::OperatingPoint> SolveContext::solve_cg(double i) const {
  return solve_cg(i, kCgMaxIterations);
}

std::optional<tec::OperatingPoint> SolveContext::solve_cg(double i,
                                                          std::size_t max_iterations) const {
  if (i < 0.0) return std::nullopt;
  const linalg::SparseMatrix m = system_.system_matrix(i);
  const linalg::Vector b = system_.rhs(i);
  linalg::CgResult r;
  try {
    r = linalg::conjugate_gradient(m, b, max_iterations);
  } catch (const std::invalid_argument&) {
    // A non-positive pencil diagonal certifies loss of positive
    // definiteness (i past λ_m pushes hot-node diagonals negative).
    return std::nullopt;
  }
  if (!r.converged) {
    if (r.iterations < max_iterations) return std::nullopt;  // p·Ap ≤ 0 breakdown
    // First-class non-convergence signal: count it, leave a degraded audit
    // record showing how wrong the abandoned θ was, then throw a typed error
    // instead of returning a silently-inaccurate operating point.
    obs::MetricsRegistry::global().counter("engine.cg.nonconverged").increment();
    const double rel =
        linalg::norm2(b) > 0.0 ? r.residual_norm / linalg::norm2(b) : r.residual_norm;
    record_audit_metrics(audit_point(system_, system_.operating_point(i, std::move(r.x)),
                                     cached_runaway_limit(), /*degraded=*/true));
    throw CgNonConvergedError(r.iterations, rel);
  }
  auto op = system_.operating_point(i, std::move(r.x));
  maybe_audit(op);
  return op;
}

void SolveContext::maybe_audit(const tec::OperatingPoint& op) const {
  const std::uint64_t seq = audit_seq_.fetch_add(1, std::memory_order_relaxed);
  if (seq % kAuditSampleEvery != 0) return;
  TFC_SPAN("engine_audit");
  record_audit_metrics(audit_point(system_, op, cached_runaway_limit()));
}

obs::health::Certificate SolveContext::audit(const tec::OperatingPoint& op) const {
  obs::health::Certificate cert = audit_point(system_, op, cached_runaway_limit());
  record_audit_metrics(cert);
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
  // requests of one context run allocation-free. The Lanczos runs on G's
  // factor in the leased workspace, which keeps it afterwards: the pool is
  // LIFO, so the current search's first probe (i = 0) leases this workspace
  // back and skips its refactorization.
  WorkspaceLease ws(*this);
  const linalg::SparseCholeskyFactor* g_factor =
      device_count() > 0 && system_.factorize_into(0.0, *ws) ? &ws->factor : nullptr;
  const tec::RunawayResult r = tec::runaway_limit_ex(system_, &ws->lanczos, g_factor);
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
