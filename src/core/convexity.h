/// \file convexity.h
/// \brief The Theorem-4 convexity certificate for the current-setting
/// problem (Section V.C.2, Lemma 4 / Theorem 4).
///
/// Each tile temperature decomposes as θ_k(i) = ½·r·i²·η_k(i) + ζ_k(i)
/// (Eq. 10). Under Conjecture 1, η_k and ζ_k are convex, so θ_k is convex on
/// a subinterval [i_t, i_{t+1}] whenever the convex feasibility problem
///   r·η_k(i) + r·η′_k(i_t)·i < 0,  i ∈ [i_t, i_{t+1}]          (Eq. 12)
/// is infeasible (η′_k(i_t) is a lower bound of η′_k on the subinterval since
/// η′_k is non-decreasing). Certifying all subintervals of a partition of
/// [0, λ_m) certifies convexity of every tile temperature — and hence of the
/// max — over the whole range (Theorem 4).
///
/// The certificate below shares the expensive linear solves across tiles:
/// one η(i) evaluation yields the functional for every tile simultaneously,
/// so a partition with S samples per subinterval costs O(S·M) solves total,
/// independent of the tile count.
#pragma once

#include <cstddef>

#include "tec/electro_thermal.h"

namespace tfc::core {

/// Outcome of the certificate.
struct ConvexityCertificate {
  /// True iff the Lemma-4 functional stayed ≥ 0 at every sample for every
  /// silicon tile — the paper's sufficient condition for convexity.
  bool certified = false;
  /// Smallest sampled value of r·η_k(i) + r·η′_k(i_t)·i over all tiles and
  /// samples (≥ 0 ⟺ certified).
  double min_functional = 0.0;
  /// Tile and current where the minimum was attained.
  std::size_t worst_tile = 0;
  double worst_current = 0.0;
  /// λ_m used for the partition.
  double lambda_m = 0.0;
  std::size_t solves = 0;
};

/// Evaluate the Theorem-4 certificate on 8 equal subintervals of
/// [0, 0.98·λ_m], sampling the Lemma-4 functional at 9 points of each. Throws
/// std::invalid_argument if the system has no TECs (there is nothing to
/// certify: θ is constant in i).
ConvexityCertificate certify_convexity(const tec::ElectroThermalSystem& system);

}  // namespace tfc::core
