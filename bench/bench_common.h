/// \file bench_common.h
/// \brief Shared helpers for the benchmark/reproduction harness.
#pragma once

#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/cooling_system.h"
#include "floorplan/alpha21364.h"
#include "floorplan/random_chip.h"
#include "linalg/eigen.h"
#include "obs/obs.h"
#include "par/parallel.h"
#include "power/workload.h"

namespace tfc::bench {

/// Worst-case tile power map for a floorplan via the full paper pipeline
/// (synthetic benchmark suite + 20 % margin).
inline linalg::Vector worst_case_map(const floorplan::Floorplan& plan,
                                     std::size_t benchmarks = 8) {
  power::WorkloadSynthesizer synth(plan);
  return power::worst_case_profile(plan, synth.synthesize_suite(benchmarks))
      .tile_powers();
}

/// The dense λ_m oracle: the paper's bisection with a Cholesky
/// positive-definiteness probe on the full pencil (G, D) — O(n³) per probe.
inline std::optional<double> dense_runaway_limit(
    const tec::ElectroThermalSystem& system) {
  return linalg::pencil_smallest_positive_eigenvalue(
      system.matrix_g().to_dense(), linalg::DenseMatrix::diagonal(system.d_diagonal()));
}

/// The eleven Table-I chips: Alpha + HC01..HC10.
struct BenchChip {
  std::string name;
  linalg::Vector tile_powers;
};

inline std::vector<BenchChip> table1_chips() {
  // Per-chip workload synthesis is independent; build all eleven power maps
  // concurrently. Slot k is always chip k, so the list order is fixed.
  return par::parallel_map(11, [](std::size_t k) {
    if (k == 0) return BenchChip{"Alpha", worst_case_map(floorplan::alpha21364())};
    return BenchChip{floorplan::hypothetical_chip_name(k),
                     worst_case_map(floorplan::hypothetical_chip(k))};
  });
}

/// A DesignResult plus the fallback policy's retry history, so benches can
/// report *which* θ-limits were attempted, not just the final one.
struct FallbackDesignResult : core::DesignResult {
  /// Every θ-limit tried, in order (first entry is the starting limit, the
  /// last is the limit of the returned result).
  std::vector<double> attempted_limits;
  std::size_t attempts() const { return attempted_limits.size(); }
};

/// Run the design with the paper's fallback policy: start at 85 °C and relax
/// by 1 °C until GreedyDeploy succeeds (paper: HC06 → 89 °C, HC09 → 88 °C).
/// Each relaxation step is logged at INFO (`design_fallback_relax`).
inline FallbackDesignResult design_with_fallback(const BenchChip& chip,
                                                 double start_limit = 85.0,
                                                 double max_limit = 110.0) {
  core::DesignRequest req;
  req.chip_name = chip.name;
  req.tile_powers = chip.tile_powers;
  req.theta_limit_celsius = start_limit;
  FallbackDesignResult fb;
  fb.attempted_limits.push_back(start_limit);
  static_cast<core::DesignResult&>(fb) = core::design_cooling_system(req);
  while (!fb.success && req.theta_limit_celsius < max_limit) {
    req.theta_limit_celsius += 1.0;
    fb.attempted_limits.push_back(req.theta_limit_celsius);
    TFC_LOG_INFO("design_fallback_relax", {"chip", chip.name},
                 {"theta_limit_c", req.theta_limit_celsius},
                 {"attempt", fb.attempted_limits.size()});
    static_cast<core::DesignResult&>(fb) = core::design_cooling_system(req);
  }
  return fb;
}

/// Accumulates per-chip metrics snapshots and writes them as one JSON file,
/// `BENCH_<name>.metrics.json`, next to the bench's stdout artifact:
/// `{"bench":"table1","chips":{"Alpha":{...},"HC01":{...}}}`. Call
/// `chip_done` after each chip: it snapshots the global registry and resets
/// it, so each chip's solver-level counters (CG iterations, PD probes,
/// candidate evaluations, ...) are attributable — regression trackers can
/// diff them run over run, not just end-to-end seconds.
///
/// Window boundaries use MetricsRegistry::snapshot_and_reset(), which reads
/// and zeroes each metric atomically — a sample recorded concurrently (e.g.
/// from a tfc::par pool thread still draining) lands in exactly one chip's
/// window instead of being dropped or double-counted by a separate
/// `to_json(); reset();` pair.
class MetricsDumper {
 public:
  explicit MetricsDumper(std::string bench_name) : bench_name_(std::move(bench_name)) {
    obs::MetricsRegistry::global().reset();
  }

  void chip_done(const std::string& chip) {
    snapshots_.emplace_back(chip, obs::MetricsRegistry::snapshot_to_json(
                                      obs::MetricsRegistry::global().snapshot_and_reset()));
  }

  ~MetricsDumper() {
    std::ofstream out("BENCH_" + bench_name_ + ".metrics.json");
    if (!out) return;
    out << "{\"bench\":\"" << bench_name_ << "\",\"chips\":{";
    for (std::size_t k = 0; k < snapshots_.size(); ++k) {
      if (k != 0) out << ',';
      out << '"' << snapshots_[k].first << "\":" << snapshots_[k].second;
    }
    out << "}}\n";
  }

 private:
  std::string bench_name_;
  std::vector<std::pair<std::string, std::string>> snapshots_;
};

}  // namespace tfc::bench
