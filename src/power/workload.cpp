#include "power/workload.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>

#include "par/parallel.h"

namespace tfc::power {

namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

WorkloadSynthesizer::WorkloadSynthesizer(const floorplan::Floorplan& plan,
                                         WorkloadOptions options)
    : plan_(&plan), options_(options) {
  if (options_.timesteps == 0 || options_.phases == 0) {
    throw std::invalid_argument("WorkloadSynthesizer: timesteps and phases must be >= 1");
  }
  if (options_.burst_probability < 0.0 || options_.burst_probability > 1.0) {
    throw std::invalid_argument("WorkloadSynthesizer: burst_probability out of [0, 1]");
  }
}

ActivityTrace WorkloadSynthesizer::synthesize(const std::string& benchmark_name) const {
  std::mt19937_64 rng(options_.seed ^ fnv1a(benchmark_name));
  const std::size_t units = plan_->units().size();
  const std::size_t steps = options_.timesteps;
  const std::size_t phase_len = std::max<std::size_t>(1, steps / options_.phases);

  ActivityTrace trace;
  trace.benchmark = benchmark_name;
  trace.utilization.assign(units, std::vector<double>(steps, 0.0));

  std::uniform_real_distribution<double> level(0.15, 0.95);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::uniform_real_distribution<double> wobble(-0.08, 0.08);

  for (std::size_t u = 0; u < units; ++u) {
    // Phase structure: each phase has a base utilization level; one phase is
    // the unit's "busiest" and ramps toward full activity.
    std::vector<double> phase_level(options_.phases);
    for (auto& l : phase_level) l = level(rng);
    std::uniform_int_distribution<std::size_t> pick_phase(0, options_.phases - 1);
    const std::size_t busiest = pick_phase(rng);
    if (options_.guarantee_worst_case) {
      phase_level[busiest] = 1.0;
    } else {
      // Realistic mode: how hard a benchmark drives each unit varies.
      std::uniform_real_distribution<double> busy(0.70, 1.0);
      phase_level[busiest] = busy(rng);
    }

    bool touched_full = false;
    for (std::size_t t = 0; t < steps; ++t) {
      const std::size_t ph = std::min(t / phase_len, options_.phases - 1);
      double util = phase_level[ph] + wobble(rng);
      if (ph == busiest && coin(rng) < options_.burst_probability) {
        util = 1.0;  // worst-case burst
        touched_full = true;
      }
      trace.utilization[u][t] = std::clamp(util, 0.0, 1.0);
    }
    // Guarantee the worst case is reached once per benchmark so the
    // reduction is exact (see header).
    if (options_.guarantee_worst_case && !touched_full) {
      const std::size_t t_star = std::min(busiest * phase_len, steps - 1);
      trace.utilization[u][t_star] = 1.0;
    }
  }
  return trace;
}

std::vector<ActivityTrace> WorkloadSynthesizer::synthesize_suite(std::size_t count) const {
  // Each benchmark seeds its own generator from its name, so the traces are
  // independent and synthesizing them concurrently is deterministic.
  return par::parallel_map(count, [this](std::size_t k) {
    return synthesize("bench" + std::string(k < 10 ? "0" : "") + std::to_string(k));
  });
}

PowerProfile worst_case_profile(const floorplan::Floorplan& plan,
                                const std::vector<ActivityTrace>& traces,
                                double margin) {
  if (margin < 0.0) throw std::invalid_argument("worst_case_profile: negative margin");
  if (traces.empty()) throw std::invalid_argument("worst_case_profile: no traces");
  const std::size_t units = plan.units().size();
  for (const auto& tr : traces) {
    if (tr.unit_count() != units) {
      throw std::invalid_argument("worst_case_profile: trace unit count mismatch");
    }
  }

  linalg::Vector tile_watts(plan.tile_count());
  for (std::size_t u = 0; u < units; ++u) {
    double peak_util = 0.0;
    for (const auto& tr : traces) {
      for (double x : tr.utilization[u]) peak_util = std::max(peak_util, x);
    }
    // peak_power carries the paper's 20 % design margin; strip it to get the
    // nominal worst case, then apply the requested margin.
    constexpr double kDesignMargin = 0.20;
    const double nominal = plan.units()[u].peak_power / (1.0 + kDesignMargin);
    const double worst = peak_util * nominal * (1.0 + margin);
    const double per_tile = worst / double(plan.units()[u].tile_count());
    for (const auto& r : plan.units()[u].rects) {
      for (std::size_t rr = r.row; rr < r.row + r.rows; ++rr) {
        for (std::size_t cc = r.col; cc < r.col + r.cols; ++cc) {
          tile_watts[rr * plan.tile_cols() + cc] += per_tile;
        }
      }
    }
  }
  return PowerProfile(plan.tile_rows(), plan.tile_cols(), std::move(tile_watts));
}

std::vector<PowerProfile> per_benchmark_profiles(const floorplan::Floorplan& plan,
                                                 const std::vector<ActivityTrace>& traces,
                                                 double margin) {
  std::vector<PowerProfile> out;
  out.reserve(traces.size());
  for (const auto& trace : traces) {
    out.push_back(worst_case_profile(plan, {trace}, margin));
  }
  return out;
}

}  // namespace tfc::power
