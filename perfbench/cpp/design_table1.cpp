/// \file design_table1.cpp
/// \brief Workload design_table1: one op is one core::design_cooling_system
/// call on one Table-I chip (Alpha, HC01-HC10) with full cover on — the
/// paper's runtime claim and the unit `tfcool design` repeats.

#include <cmath>
#include <fstream>
#include <sstream>

#include "core/cooling_system.h"
#include "harness.h"
#include "io/design_json.h"
#include "io/json.h"
#include "tec/electro_thermal.h"
#include "thermal/package.h"

namespace perfbench {
namespace {

constexpr std::size_t kChips = 11;
constexpr std::size_t kPlannedCycles = 64;
constexpr const char* kGoldenPath = "tests/data/golden_design_alpha.json";

/// Numbers agree to 1e-6 relative; everything else (deployment rows
/// included) exactly.
std::string json_mismatch(const tfc::io::JsonValue& got, const tfc::io::JsonValue& want,
                          const std::string& where) {
  using tfc::io::JsonValue;
  if (got.type() != want.type()) return where + ": type differs";
  switch (want.type()) {
    case JsonValue::Type::kNumber: {
      const double a = got.as_number(), b = want.as_number();
      return std::abs(a - b) <= 1e-6 * std::max(std::abs(a), std::abs(b))
                 ? ""
                 : where + ": " + std::to_string(a) + " vs golden " + std::to_string(b);
    }
    case JsonValue::Type::kArray: {
      const auto& ga = got.as_array();
      const auto& wa = want.as_array();
      if (ga.size() != wa.size()) return where + ": length differs";
      for (std::size_t i = 0; i < wa.size(); ++i) {
        auto m = json_mismatch(ga[i], wa[i], where + "[" + std::to_string(i) + "]");
        if (!m.empty()) return m;
      }
      return "";
    }
    case JsonValue::Type::kObject: {
      const auto& gm = got.members();
      const auto& wm = want.members();
      if (gm.size() != wm.size()) return where + ": member count differs";
      for (std::size_t i = 0; i < wm.size(); ++i) {
        if (gm[i].first != wm[i].first) return where + ": key " + gm[i].first;
        auto m = json_mismatch(gm[i].second, wm[i].second, where + "." + wm[i].first);
        if (!m.empty()) return m;
      }
      return "";
    }
    default:
      return got.dump() == want.dump() ? "" : where + ": " + got.dump();
  }
}

std::string check_design(const tfc::core::DesignResult& r) {
  if (!(r.full_cover_min_peak_celsius <= r.peak_no_tec_celsius)) {
    return "full-cover min peak above the no-TEC peak";
  }
  if (!r.success) return "";
  if (!(r.peak_greedy_celsius <= r.theta_limit_celsius)) return "peak above the limit";
  if (r.tec_count != r.deployment.count()) return "tec_count differs from the deployment";
  if (r.tec_count == 0) return r.current == 0.0 ? "" : "current without TECs";
  if (!r.lambda_m) return "no lambda_m for a deployment";
  if (!(r.current > 0.0 && r.current < *r.lambda_m)) return "I_opt outside (0, lambda_m)";
  return "";
}

class DesignTable1 final : public Workload {
 public:
  explicit DesignTable1(std::uint64_t seed) : seed_(seed) {}

  const char* name() const override { return "design_table1"; }
  double nominal_ops_per_s() const override { return 1.3; }
  std::size_t op_cycle() const override { return kChips; }

  std::string setup() override {
    powers_.clear();
    plan_.clear();
    power_ms_ = 0.0;
    for (std::size_t k = 0; k < kChips; ++k) {
      const auto plan = table1_floorplan(k);
      const auto t0 = Clock::now();
      powers_.push_back(worst_case_powers(plan));
      power_ms_ += ms_since(t0);
    }
    // Every cycle of 11 ops covers all chips, in a seeded order, each with
    // its own seeded theta-limit.
    Rng rng(seed_, 1);
    for (std::size_t c = 0; c < kPlannedCycles; ++c) {
      for (std::size_t chip : rng.permutation(kChips)) {
        plan_.push_back({chip, rng.uniform(85.0, 90.0)});
      }
    }
    return golden_check();
  }

  PhaseResult run(const Budget& budget) override {
    deployments_.clear();
    return run_closed_loop(
        name(), budget,
        [this](std::size_t k) {
          const Input& in = plan_[k % plan_.size()];
          tfc::core::DesignRequest req;
          req.chip_name = table1_chip_name(in.chip);
          req.tile_powers = powers_[in.chip];
          req.theta_limit_celsius = in.limit_c;
          req.run_full_cover = true;
          OpOutcome out;
          tfc::core::DesignResult res;
          {
            BenchSpan op_span("design_table1.op", k);
            const auto t0 = Clock::now();
            {
              BenchSpan call("core.design_cooling_system", k);
              res = tfc::core::design_cooling_system(req);
            }
            out.ms = ms_since(t0);
          }
          out.error = check_design(res);
          deployments_.push_back({in.chip, res.deployment});
          return out;
        },
        [this](std::size_t k) {
          const Input& in = plan_[k % plan_.size()];
          return "chip=" + table1_chip_name(in.chip) + " limit_c=" + std::to_string(in.limit_c);
        });
  }

  void layer_metrics(const TraceWindow&, MetricMap& out) override {
    double nnz = 0.0, fill = 0.0;
    for (const auto& [chip, mask] : deployments_) {
      const auto sys = tfc::tec::ElectroThermalSystem::assemble(
          tfc::thermal::PackageGeometry{}, mask, powers_[chip],
          tfc::tec::TecDeviceParams::chowdhury_superlattice());
      const Fill f = factor_fill(sys);
      nnz += f.nnz;
      fill += f.ratio;
    }
    const double n = double(std::max<std::size_t>(deployments_.size(), 1));
    out["linalg.factor_nnz"] = nnz / n;
    out["linalg.fill_ratio"] = fill / n;
    out["power.worst_case_map.ms"] = power_ms_;
  }

 private:
  struct Input {
    std::size_t chip = 0;
    double limit_c = 85.0;
  };

  /// Alpha at 85 degC without full cover must reproduce the repository's
  /// design golden.
  std::string golden_check() {
    std::ifstream in(kGoldenPath);
    if (!in) return std::string("cannot read ") + kGoldenPath;
    std::stringstream text;
    text << in.rdbuf();
    tfc::core::DesignRequest req;
    req.chip_name = "alpha";
    req.tile_powers = powers_[0];
    req.run_full_cover = false;
    const auto res = tfc::core::design_cooling_system(req);
    const auto m = json_mismatch(tfc::io::parse_json(tfc::io::design_result_to_json(res)),
                                 tfc::io::parse_json(text.str()), "golden_design_alpha");
    return m.empty() ? check_design(res) : m;
  }

  std::uint64_t seed_;
  std::vector<tfc::linalg::Vector> powers_;
  std::vector<Input> plan_;
  double power_ms_ = 0.0;
  std::vector<std::pair<std::size_t, tfc::TileMask>> deployments_;
};

}  // namespace

std::unique_ptr<Workload> make_design_table1(std::uint64_t seed) {
  return std::make_unique<DesignTable1>(seed);
}

}  // namespace perfbench
