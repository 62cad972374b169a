/// \file workload.h
/// \brief Synthetic workload traces and the worst-case reduction pipeline.
///
/// The paper obtains per-unit worst-case power by simulating SPEC2000 on the
/// M5 simulator with Wattch and adding a 20 % margin. We have neither the
/// benchmarks nor the simulators, so this module synthesizes per-unit
/// activity traces with the same phenomenology (program phases, bursts,
/// correlated units, idle periods) and applies exactly the same reduction:
/// per-unit maximum over the trace, times (1 + margin), rasterized to tiles.
///
/// The synthesized traces are guaranteed to touch full activity (1.0) in at
/// least one interval per unit, so the reduction reproduces each unit's
/// declared worst-case power exactly — the property the downstream
/// experiments rely on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "floorplan/floorplan.h"
#include "power/power_profile.h"

namespace tfc::power {

/// One benchmark's activity trace: per unit, per timestep, utilization in
/// [0, 1] relative to the unit's worst-case activity.
struct ActivityTrace {
  std::string benchmark;
  /// [unit][timestep].
  std::vector<std::vector<double>> utilization;

  std::size_t unit_count() const { return utilization.size(); }
  std::size_t length() const {
    return utilization.empty() ? 0 : utilization.front().size();
  }
};

/// Trace generation options.
struct WorkloadOptions {
  std::size_t timesteps = 2000;
  /// Number of program phases per benchmark.
  std::size_t phases = 6;
  /// Probability per timestep of a full-activity burst within the unit's
  /// busiest phase.
  double burst_probability = 0.02;
  /// Force every unit to reach utilization 1.0 at least once per benchmark
  /// (makes the worst-case reduction exact; see class docs). Disable to get
  /// benchmarks with genuinely different per-unit worst cases, as real
  /// suites have — the regime where scenario-aware design pays off.
  bool guarantee_worst_case = true;
  std::uint64_t seed = 0x5eedbeef;
};

/// Deterministic synthesizer of benchmark-suite-like activity traces.
class WorkloadSynthesizer {
 public:
  WorkloadSynthesizer(const floorplan::Floorplan& plan, WorkloadOptions options = {});

  /// Synthesize one named benchmark's trace (deterministic in the name).
  ActivityTrace synthesize(const std::string& benchmark_name) const;

  /// Synthesize a suite of \p count benchmarks ("bench00", "bench01", …),
  /// concurrently on the tfc::par pool (identical traces for any pool size).
  std::vector<ActivityTrace> synthesize_suite(std::size_t count) const;

 private:
  const floorplan::Floorplan* plan_;
  WorkloadOptions options_;
};

/// Per-unit worst-case power over a set of traces with a safety margin:
/// worst_u = max over traces and timesteps of utilization × nominal_u, then
/// × (1 + margin). nominal_u is unit.peak_power / 1.2 (each unit's declared
/// worst case carries the paper's 20 % design margin), so a fully-exercised
/// unit at the default margin reproduces its declared worst case exactly.
/// Returns the per-tile worst-case map (Problem 1's input).
PowerProfile worst_case_profile(const floorplan::Floorplan& plan,
                                const std::vector<ActivityTrace>& traces,
                                double margin = 0.20);

/// Per-benchmark worst-case maps: the same reduction applied to each trace
/// individually (one scenario per benchmark). Folding these with a per-tile
/// max reproduces worst_case_profile over the suite; keeping them separate
/// feeds the scenario-aware designer (core::greedy_deploy_multi), which can
/// exploit that different benchmarks stress different units.
std::vector<PowerProfile> per_benchmark_profiles(const floorplan::Floorplan& plan,
                                                 const std::vector<ActivityTrace>& traces,
                                                 double margin = 0.20);

}  // namespace tfc::power
