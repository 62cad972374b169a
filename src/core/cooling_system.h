/// \file cooling_system.h
/// \brief Top-level API: the Cooling System Configuration problem
/// (Problem 1) end to end, plus the Table-I comparison bundle.
///
/// This is the library's front door: give it a chip (package + worst-case
/// power map + device parameters + temperature limit) and it returns the TEC
/// deployment, the supply current, and the comparison against the no-TEC and
/// full-cover configurations.
#pragma once

#include <string>

#include "core/baselines.h"
#include "core/convexity.h"
#include "core/greedy_deploy.h"

namespace tfc::core {

/// Largest θ-limit a design accepts [°C].
inline constexpr double kMaxThetaLimitCelsius = 500.0;

/// A complete problem instance.
struct DesignRequest {
  std::string chip_name = "chip";
  /// The package (default: the paper's single-die package). The design runs
  /// on the spec's virtual tile grid (all die grids stacked vertically) and
  /// greedy/full-cover deployment is clipped to the spec's TEC-capable
  /// interface sites.
  std::shared_ptr<const thermal::StackSpec> spec = thermal::paper_package();
  /// Worst-case power per tile [W], row-major over the virtual grid. An
  /// empty vector means "use the spec's own power maps" (layer power_w /
  /// floorplans).
  linalg::Vector tile_powers;
  tec::TecDeviceParams device = tec::TecDeviceParams::chowdhury_superlattice();
  /// Maximum allowable tile temperature [°C] (the paper uses 85 °C).
  double theta_limit_celsius = 85.0;
  /// Also run the full-cover baseline (Table I's last two columns).
  bool run_full_cover = true;
  /// Also evaluate the Theorem-4 convexity certificate on the final greedy
  /// deployment.
  bool run_convexity_certificate = false;
  GreedyDeployOptions greedy;

  /// The θ-limit check of every front end: throws std::invalid_argument
  /// unless \p celsius is finite and in (0, kMaxThetaLimitCelsius].
  static void check_theta_limit(double celsius);
};

/// Everything Table I reports for one chip, plus diagnostics.
struct DesignResult {
  std::string chip_name;
  double theta_limit_celsius = 0.0;

  /// θ_peak with no TEC devices [°C].
  double peak_no_tec_celsius = 0.0;

  /// GreedyDeploy outcome.
  bool success = false;
  std::size_t tec_count = 0;
  double current = 0.0;                  ///< I_opt [A]
  double tec_power = 0.0;                ///< P_TEC [W]
  double peak_greedy_celsius = 0.0;      ///< θ_peak after greedy deployment [°C]
  TileMask deployment;
  std::optional<double> lambda_m;        ///< runaway limit of the deployment [A]
  std::size_t greedy_iterations = 0;

  /// Full-cover baseline (valid when run_full_cover).
  double full_cover_min_peak_celsius = 0.0;  ///< "minθpeak"
  double full_cover_current = 0.0;
  double full_cover_power = 0.0;
  /// SwingLoss = full-cover min peak − greedy peak [°C].
  double swing_loss_celsius = 0.0;

  /// Convexity certificate (valid when run_convexity_certificate and TECs
  /// were deployed).
  std::optional<ConvexityCertificate> convexity;

  /// Wall-clock of the whole design run [ms].
  double runtime_ms = 0.0;
};

/// Solve Problem 1 on one chip and assemble the Table-I row. Throws
/// std::invalid_argument on a null request.spec or a θ-limit that
/// DesignRequest::check_theta_limit refuses.
DesignResult design_cooling_system(const DesignRequest& request);

/// Render a deployment mask as an ASCII tile map ('#' = TEC, '.' = bare),
/// the textual equivalent of Figure 7(b).
std::string deployment_map(const TileMask& deployment);

/// Format one Table-I row:
/// name, θpeak, θlimit, #TECs, Iopt, PTEC, minθpeak(full), SwingLoss.
std::string format_table_row(const DesignResult& r);

/// The matching header line.
std::string table_header();

}  // namespace tfc::core
