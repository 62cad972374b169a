#include "core/convexity.h"

#include <limits>
#include <stdexcept>

#include "core/response.h"
#include "tec/runaway.h"

namespace tfc::core {

namespace {

/// The partition: kSubintervals subintervals [i_t, i_{t+1}] of
/// [0, kLambdaFraction·λ_m], each sampled at kSamplesPerInterval points of the
/// Lemma-4 functional (its convexity makes a negative dip between samples an
/// interval; sampling this densely makes the check reliable in practice).
constexpr std::size_t kSubintervals = 8;
constexpr std::size_t kSamplesPerInterval = 9;
constexpr double kLambdaFraction = 0.98;

}  // namespace

ConvexityCertificate certify_convexity(const tec::ElectroThermalSystem& system) {
  if (system.device_count() == 0) {
    throw std::invalid_argument("certify_convexity: system has no TEC devices");
  }

  auto lm = tec::runaway_limit(system);
  if (!lm) {
    throw std::runtime_error("certify_convexity: no finite runaway limit");
  }

  ConvexityCertificate cert;
  cert.lambda_m = *lm;
  cert.certified = true;
  cert.min_functional = std::numeric_limits<double>::infinity();

  const auto& model = system.model();
  const double r = system.device().resistance;
  const double hi = kLambdaFraction * *lm;
  const double dt = hi / double(kSubintervals);

  // Silicon injection node per tile (the tile functional).
  const std::size_t rows = model.tile_rows();
  const std::size_t cols = model.tile_cols();
  std::vector<std::size_t> tile_nodes(rows * cols);
  for (std::size_t t = 0; t < rows * cols; ++t) {
    tile_nodes[t] = model.silicon_node({t / cols, t % cols});
  }

  const auto tile_reduce = [&](const linalg::Vector& node_values, std::size_t t) {
    return node_values[tile_nodes[t]];
  };

  for (std::size_t seg = 0; seg < kSubintervals; ++seg) {
    const double it_lo = double(seg) * dt;
    const double it_hi = it_lo + dt;

    // η′(i_t): the constant lower bound of η′ on the subinterval.
    auto eval_lo = ResponseEvaluator::at(system, it_lo);
    if (!eval_lo) throw std::runtime_error("certify_convexity: factorization failed");
    ResponseSample lo = eval_lo->sample();
    cert.solves += 3;

    for (std::size_t s = 0; s < kSamplesPerInterval; ++s) {
      const double i = it_lo + (it_hi - it_lo) * double(s) /
                                   double(kSamplesPerInterval - 1);
      linalg::Vector eta_i;
      if (s == 0) {
        eta_i = lo.eta;
      } else {
        // Only η(i) is needed at interior samples: one factorization + solve.
        auto eval = ResponseEvaluator::at(system, i);
        if (!eval) throw std::runtime_error("certify_convexity: factorization failed");
        eta_i = eval->eta();
        cert.solves += 1;
      }

      for (std::size_t t = 0; t < rows * cols; ++t) {
        const double phi =
            r * tile_reduce(eta_i, t) + r * tile_reduce(lo.eta_prime, t) * i;
        if (phi < cert.min_functional) {
          cert.min_functional = phi;
          cert.worst_tile = t;
          cert.worst_current = i;
        }
        if (phi < 0.0) cert.certified = false;
      }
    }
  }
  return cert;
}

}  // namespace tfc::core
