#include "core/chip.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "floorplan/alpha21364.h"
#include "floorplan/random_chip.h"
#include "obs/obs.h"
#include "power/workload.h"

namespace tfc::core {

namespace {

constexpr std::size_t kMaxHypotheticalChip = 99;

}  // namespace

std::string builtin_chip_name(const std::string& name) {
  if (name == "alpha") return name;
  if (name.size() > 2 && name.rfind("hc", 0) == 0 &&
      name.find_first_not_of("0123456789", 2) == std::string::npos) {
    std::size_t index = 0;  // saturates past the range: no overflow on long digit runs
    for (std::size_t k = 2; k < name.size() && index <= kMaxHypotheticalChip; ++k) {
      index = index * 10 + std::size_t(name[k] - '0');
    }
    if (index >= 1 && index <= kMaxHypotheticalChip) return "hc" + std::to_string(index);
  }
  throw std::invalid_argument("unknown chip '" + name + "' (use alpha or hc1..hc" +
                              std::to_string(kMaxHypotheticalChip) + ")");
}

Chip builtin_chip(const std::string& name) {
  Chip chip;
  chip.name = builtin_chip_name(name);
  floorplan::Floorplan plan =
      chip.name == "alpha"
          ? floorplan::alpha21364()
          : floorplan::hypothetical_chip(std::stoul(chip.name.substr(2)));
  // A synthesized suite touches full activity on every unit
  // (WorkloadOptions::guarantee_worst_case), so its worst case is that of one
  // all-ones step: the same reduction, bit for bit, without synthesizing it.
  power::ActivityTrace full_activity;
  full_activity.utilization.assign(plan.units().size(), std::vector<double>(1, 1.0));
  chip.tile_powers = power::worst_case_profile(plan, {full_activity}).tile_powers();
  chip.plan = std::make_shared<const floorplan::Floorplan>(std::move(plan));
  return chip;
}

Chip spec_chip(std::shared_ptr<const thermal::StackSpec> spec) {
  if (spec == nullptr) throw std::invalid_argument("spec_chip: null spec");
  Chip chip;
  chip.name = spec->name;
  chip.plan = std::make_shared<const floorplan::Floorplan>(spec->combined_floorplan());
  chip.tile_powers = spec->tile_powers();
  chip.spec = std::move(spec);
  return chip;
}

DesignResult design_with_fallback(const Chip& chip, double theta_limit_celsius,
                                  bool run_full_cover, bool certify,
                                  const engine::EngineOptions& engine) {
  DesignRequest req;
  req.chip_name = chip.name;
  req.spec = chip.spec;
  req.tile_powers = chip.tile_powers;
  req.theta_limit_celsius = theta_limit_celsius;
  req.run_full_cover = run_full_cover;
  req.run_convexity_certificate = certify;
  req.greedy.engine = engine;
  DesignResult res = design_cooling_system(req);
  const double relax_to = std::min(theta_limit_celsius + 25.0, kMaxThetaLimitCelsius);
  while (!res.success && req.theta_limit_celsius < relax_to) {
    req.theta_limit_celsius += 1.0;
    TFC_LOG_INFO("design_fallback_relax", {"chip", chip.name},
                 {"theta_limit_c", req.theta_limit_celsius});
    res = design_cooling_system(req);
  }
  return res;
}

std::optional<double> Session::lambda_m() const {
  if (design.deployment.empty()) return std::nullopt;
  return context->runaway_limit();
}

Session open_session(Chip chip, double theta_limit_celsius,
                     const engine::EngineOptions& engine) {
  Session session;
  session.theta_limit_celsius = theta_limit_celsius;
  session.design = design_with_fallback(chip, theta_limit_celsius, /*run_full_cover=*/false,
                                        /*certify=*/false, engine);
  session.context = std::make_shared<const engine::SolveContext>(
      chip.spec, session.design.deployment, chip.tile_powers,
      tec::TecDeviceParams::chowdhury_superlattice(), engine);
  session.chip = std::move(chip);
  return session;
}

void SweepRequest::validate() const {
  if (points < 1 || points > 10000) {
    throw std::invalid_argument("'points' must be an integer in [1, 10000]");
  }
  if (!(max_fraction > 0.0 && max_fraction < 1.0)) {
    throw std::invalid_argument("'max_fraction' must be in (0, 1)");
  }
}

std::vector<SweepRow> sweep(const Session& session, const SweepRequest& request) {
  request.validate();
  const std::optional<double> lambda_m = session.lambda_m();
  if (!lambda_m) throw std::invalid_argument("no TECs deployed; nothing to sweep");
  const double hi = request.max_fraction * *lambda_m;
  std::vector<SweepRow> rows;
  for (std::size_t s = 0; s <= request.points; ++s) {
    const double i = hi * double(s) / double(request.points);
    const auto op = session.context->solve(i);
    if (!op) break;
    rows.push_back(
        {i, thermal::to_celsius(op->peak_tile_temperature), op->tec_input_power});
  }
  return rows;
}

}  // namespace tfc::core
