/// \file chip.h
/// \brief The chips the front ends design — built-in chips by name and
/// declarative packages — and the θ-limit relax loop the CLI and the solver
/// service share.
#pragma once

#include <memory>
#include <string>

#include "core/cooling_system.h"
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
/// the limit by 1 °C, up to 25 °C above the request (one
/// design_fallback_relax log line per step).
DesignResult design_with_fallback(const Chip& chip, double theta_limit_celsius,
                                  bool run_full_cover, bool certify = false,
                                  const engine::EngineOptions& engine = {});

}  // namespace tfc::core
