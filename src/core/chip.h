/// \file chip.h
/// \brief The chips the front ends design — built-in chips by name and
/// declarative packages — the θ-limit relax loop, and the session and
/// current sweep that the CLI and the solver service share.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/cooling_system.h"
#include "engine/solve_context.h"
#include "floorplan/floorplan.h"
#include "linalg/vector.h"
#include "thermal/stack_spec.h"

namespace tfc::core {

/// One chip ready to design.
struct Chip {
  /// Display name ("alpha", "hc7", a spec's name).
  std::string name;
  /// The package (the paper's for built-in chips).
  std::shared_ptr<const thermal::StackSpec> spec = thermal::paper_package();
  /// Unit floorplan on the package's virtual grid (workload synthesis, DTM
  /// actions, frame unit names).
  std::shared_ptr<const floorplan::Floorplan> plan;
  /// Worst-case power per tile [W], row-major over the virtual grid.
  linalg::Vector tile_powers;
};

/// Canonical name of a built-in chip: "alpha", or "hc<N>" with N in 1..99
/// written in decimal digits ("hc007" → "hc7"). Throws
/// std::invalid_argument("unknown chip '<name>' (use alpha or hc1..hc99)")
/// for anything else.
std::string builtin_chip_name(const std::string& name);

/// Built-in chip \p name (as builtin_chip_name accepts) on the paper's
/// package: the Alpha 21364 or hypothetical-chip floorplan and its
/// worst-case tile power map over the synthesized 8-benchmark suite.
Chip builtin_chip(const std::string& name);

/// A declarative package as a chip: the spec's name, combined virtual-grid
/// floorplan and power maps. Throws std::invalid_argument on a null spec.
Chip spec_chip(std::shared_ptr<const thermal::StackSpec> spec);

/// Design \p chip at \p theta_limit_celsius; while GreedyDeploy fails, relax
/// the limit by 1 °C, up to 25 °C above the request and never past
/// kMaxThetaLimitCelsius (one design_fallback_relax log line per step).
/// Throws std::invalid_argument on a limit DesignRequest::check_theta_limit
/// refuses.
DesignResult design_with_fallback(const Chip& chip, double theta_limit_celsius,
                                  bool run_full_cover, bool certify = false,
                                  const engine::EngineOptions& engine = {});

/// One chip designed at one θ-limit, with the solve engine over its
/// deployment: what every CLI solver command and every service session
/// works on.
struct Session {
  Chip chip;
  /// The requested θ-limit [°C]; the design may have relaxed it.
  double theta_limit_celsius = 85.0;
  DesignResult design;
  std::shared_ptr<const engine::SolveContext> context;

  /// λ_m of the deployment (the context's cached runaway_limit()); nullopt
  /// when no TECs are deployed.
  std::optional<double> lambda_m() const;
};

/// Design \p chip with design_with_fallback (no full cover, no certificate)
/// and build the SolveContext over its deployment. Throws
/// std::invalid_argument on a bad θ-limit.
Session open_session(Chip chip, double theta_limit_celsius,
                     const engine::EngineOptions& engine = {});

/// A supply-current sweep: points + 1 currents evenly spaced over
/// [0, max_fraction·λ_m].
struct SweepRequest {
  std::size_t points = 25;
  double max_fraction = 0.95;

  /// Throws std::invalid_argument unless points is in [1, 10000] and
  /// max_fraction in (0, 1).
  void validate() const;
};

/// One operating point of a sweep.
struct SweepRow {
  double current = 0.0;       ///< [A]
  double peak_celsius = 0.0;  ///< θ_peak [°C]
  double tec_power = 0.0;     ///< P_TEC [W]
};

/// Validate \p request and solve each of its currents on \p session's
/// context, stopping at the first current whose pencil does not factor.
/// Throws std::invalid_argument when no TECs are deployed.
std::vector<SweepRow> sweep(const Session& session, const SweepRequest& request);

}  // namespace tfc::core
