#include "tec/runaway.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "linalg/sparse_cholesky.h"
#include "obs/obs.h"

namespace tfc::tec {

SchurReduction schur_reduction(const ElectroThermalSystem& system) {
  TFC_SPAN("schur_reduction");
  const auto& hot = system.model().hot_nodes();
  const auto& cold = system.model().cold_nodes();
  if (hot.empty()) {
    throw std::invalid_argument("schur_reduction: system has no TEC devices");
  }

  SchurReduction red;
  red.tec_nodes = hot;
  red.tec_nodes.insert(red.tec_nodes.end(), cold.begin(), cold.end());
  const std::size_t m = red.tec_nodes.size();
  const std::size_t n = system.node_count();

  // Mark TEC rows; build the N (non-TEC) index map.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> to_t(n, kNone), to_n(n, kNone);
  for (std::size_t k = 0; k < m; ++k) to_t[red.tec_nodes[k]] = k;
  std::size_t nn = 0;
  for (std::size_t k = 0; k < n; ++k) {
    if (to_t[k] == kNone) to_n[k] = nn++;
  }

  // Extract blocks of G.
  const auto& g = system.matrix_g();
  const auto& rp = g.row_ptr();
  const auto& ci = g.col_idx();
  const auto& vals = g.values();
  linalg::TripletList t_nn(nn, nn);
  linalg::DenseMatrix g_tt(m, m);
  linalg::DenseMatrix g_nt(nn, m);  // N rows, T columns
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t k = rp[r]; k < rp[r + 1]; ++k) {
      const std::size_t c = ci[k];
      const double v = vals[k];
      if (to_t[r] != kNone && to_t[c] != kNone) {
        g_tt(to_t[r], to_t[c]) += v;
      } else if (to_t[r] == kNone && to_t[c] == kNone) {
        t_nn.add(to_n[r], to_n[c], v);
      } else if (to_t[r] == kNone) {
        g_nt(to_n[r], to_t[c]) += v;
      }
      // T-row/N-col entries are the transpose of g_nt (G symmetric).
    }
  }

  auto f_nn = linalg::SparseCholeskyFactor::factor(linalg::SparseMatrix::from_triplets(t_nn));
  if (!f_nn) {
    throw std::runtime_error("schur_reduction: G_NN not positive definite");
  }

  // S0 = G_TT - G_NTᵀ · G_NN⁻¹ · G_NT, column by column.
  red.s0 = g_tt;
  for (std::size_t j = 0; j < m; ++j) {
    linalg::Vector col(nn);
    for (std::size_t r = 0; r < nn; ++r) col[r] = g_nt(r, j);
    linalg::Vector x = f_nn->solve(col);
    for (std::size_t i2 = 0; i2 < m; ++i2) {
      double acc = 0.0;
      for (std::size_t r = 0; r < nn; ++r) acc += g_nt(r, i2) * x[r];
      red.s0(i2, j) -= acc;
    }
  }

  red.d_diag = linalg::Vector(m);
  const auto& d_full = system.d_diagonal();
  for (std::size_t k = 0; k < m; ++k) red.d_diag[k] = d_full[red.tec_nodes[k]];
  return red;
}

std::optional<double> runaway_limit(const ElectroThermalSystem& system) {
  return runaway_limit_ex(system).lambda_m;
}

RunawayResult runaway_limit_ex(const ElectroThermalSystem& system,
                               linalg::ShiftInvertLanczosWorkspace* ws,
                               const linalg::SparseCholeskyFactor* g_factor) {
  RunawayResult res;
  if (system.model().hot_nodes().empty()) return res;

  TFC_SPAN("runaway_limit");
  obs::MetricsRegistry::global().counter("runaway.calls").increment();

  linalg::ShiftInvertLanczosWorkspace local;
  auto lanczos = linalg::ShiftInvertLanczos::smallest_positive(
      system.matrix_g(), system.d_diagonal(), system.cholesky_symbolic(),
      ws != nullptr ? *ws : local, g_factor);
  if (lanczos) {
    res.lambda_m = lanczos->eigenvalue;
    res.iterations = lanczos->iterations;
    obs::MetricsRegistry::global().gauge("runaway.lambda_m").set(lanczos->eigenvalue);
    TFC_SPAN_ATTR("lambda_m_a", lanczos->eigenvalue);
  }
  TFC_LOG_DEBUG("runaway_limit", {"devices", system.model().hot_nodes().size()},
                {"iterations", res.iterations},
                {"lambda_m", res.lambda_m ? *res.lambda_m
                                          : std::numeric_limits<double>::infinity()});
  return res;
}

}  // namespace tfc::tec
