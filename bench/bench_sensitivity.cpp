/// \file bench_sensitivity.cpp
/// \brief Extension study — device-parameter tornado table.
///
/// Around the calibrated Chowdhury-style device on the Alpha deployment:
/// how much does each physical parameter move the achievable peak
/// temperature, the runaway limit λ_m, and the optimal current? Guides where
/// device engineering effort pays off at the *system* level.

#include <cstdio>

#include "bench_common.h"
#include "core/sensitivity.h"

int main() {
  using namespace tfc;

  const auto powers = bench::worst_case_map(floorplan::alpha21364());
  auto design = bench::design_with_fallback({"Alpha", powers});

  std::printf("=== Device-parameter sensitivities (Alpha, %zu TECs, +/-10%%) ===\n\n",
              design.tec_count);
  std::printf("%-22s %16s %16s %14s\n", "parameter", "d(peak)/d(rel)",
              "d(lambda)/d(rel)", "d(Iopt)/d(rel)");
  auto rows = core::device_sensitivities(thermal::paper_package(), powers,
                                         tec::TecDeviceParams::chowdhury_superlattice(),
                                         design.deployment);
  double best_cooling = 0.0;
  std::string best_param;
  for (const auto& r : rows) {
    std::printf("%-22s %14.2f C %14.1f A %12.2f A\n", r.parameter.c_str(),
                r.peak_per_unit_relative, r.lambda_per_unit_relative,
                r.current_per_unit_relative);
    if (r.peak_per_unit_relative < best_cooling) {
      best_cooling = r.peak_per_unit_relative;
      best_param = r.parameter;
    }
  }
  std::printf("\nlargest cooling lever: %s (%.2f degC per +100%%).\n",
              best_param.c_str(), best_cooling);
  std::printf("Note the built-in tension: raising the Seebeck coefficient cools the\n"
              "hot spot AND lowers lambda_m — stronger pumping brings the runaway\n"
              "boundary closer, the paper's central cautionary observation.\n");
  return best_cooling < 0.0 ? 0 : 1;
}
