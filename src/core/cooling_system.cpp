#include "core/cooling_system.h"

#include <chrono>
#include <cstdio>
#include <stdexcept>

#include "obs/obs.h"

namespace tfc::core {

void DesignRequest::check_theta_limit(double celsius) {
  if (!(celsius > 0.0 && celsius <= kMaxThetaLimitCelsius)) {
    throw std::invalid_argument("'limit' must be in (0, 500] degC");
  }
}

DesignResult design_cooling_system(const DesignRequest& request) {
  if (request.spec == nullptr) {
    throw std::invalid_argument("design_cooling_system: null spec");
  }
  DesignRequest::check_theta_limit(request.theta_limit_celsius);
  TFC_SPAN("design");
  const auto t0 = std::chrono::steady_clock::now();

  DesignResult res;
  res.chip_name = request.chip_name;
  res.theta_limit_celsius = request.theta_limit_celsius;
  TFC_LOG_INFO("design_start", {"chip", request.chip_name},
               {"theta_limit_c", request.theta_limit_celsius},
               {"tiles", request.tile_powers.size()});

  linalg::Vector powers = request.tile_powers;
  if (powers.size() == 0) powers = request.spec->tile_powers();

  GreedyDeployResult g = greedy_deploy(request.spec, powers, request.device,
                                       thermal::to_kelvin(request.theta_limit_celsius));
  res.success = g.success;
  res.deployment = g.deployment;
  res.tec_count = g.deployment.count();
  res.current = g.current;
  res.tec_power = g.tec_input_power;
  res.peak_no_tec_celsius = thermal::to_celsius(g.peak_without_tec);
  res.peak_greedy_celsius = thermal::to_celsius(g.peak_tile_temperature);
  res.lambda_m = g.lambda_m;
  res.greedy_iterations = g.iterations.size();

  if (request.run_full_cover) {
    TFC_SPAN("full_cover");
    BaselineResult fc =
        full_cover(request.spec, powers, request.device);
    res.full_cover_min_peak_celsius = thermal::to_celsius(fc.min_peak_temperature);
    res.full_cover_current = fc.optimum.current;
    res.full_cover_power = fc.optimum.tec_input_power;
    res.swing_loss_celsius = res.full_cover_min_peak_celsius - res.peak_greedy_celsius;
  }

  if (request.run_convexity_certificate && res.tec_count > 0) {
    TFC_SPAN("convexity_certificate");
    auto system = tec::ElectroThermalSystem::assemble(request.spec, res.deployment,
                                                      powers, request.device);
    res.convexity = certify_convexity(system);
  }

  res.runtime_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  obs::MetricsRegistry::global().histogram("design.runtime_ms").record(res.runtime_ms);
  TFC_LOG_INFO("design_done", {"chip", res.chip_name}, {"success", res.success},
               {"tecs", res.tec_count}, {"current_a", res.current},
               {"peak_c", res.peak_greedy_celsius}, {"runtime_ms", res.runtime_ms});
  return res;
}

std::string deployment_map(const TileMask& deployment) {
  std::string out;
  out.reserve((deployment.cols() + 1) * deployment.rows());
  for (std::size_t r = 0; r < deployment.rows(); ++r) {
    for (std::size_t c = 0; c < deployment.cols(); ++c) {
      out += deployment.test(r, c) ? '#' : '.';
    }
    out += '\n';
  }
  return out;
}

std::string table_header() {
  return "chip     θpeak(noTEC)  θlimit  #TECs  Iopt[A]  PTEC[W]  minθpeak(full)  "
         "SwingLoss  status";
}

std::string format_table_row(const DesignResult& r) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%-8s %9.1f %9.0f %6zu %8.2f %8.2f %12.1f %10.1f  %s",
                r.chip_name.c_str(), r.peak_no_tec_celsius, r.theta_limit_celsius,
                r.tec_count, r.current, r.tec_power, r.full_cover_min_peak_celsius,
                r.swing_loss_celsius, r.success ? "ok" : "FAILED");
  return buf;
}

}  // namespace tfc::core
