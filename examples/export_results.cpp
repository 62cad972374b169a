/// \file export_results.cpp
/// \brief Export machine-readable artifacts of a design run: CSV temperature
/// maps (before/after), the h_kl(i) figure series, the system matrix in
/// MatrixMarket format, and the design result as JSON. Files go to the
/// directory given as argv[1] (default "./export").
///
///   $ ./export_results [outdir]

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/cooling_system.h"
#include "core/response.h"
#include "floorplan/alpha21364.h"
#include "io/csv.h"
#include "io/design_json.h"
#include "io/matrix_market.h"
#include "power/workload.h"
#include "tec/runaway.h"

int main(int argc, char** argv) {
  using namespace tfc;
  const std::filesystem::path outdir = argc > 1 ? argv[1] : "export";
  std::filesystem::create_directories(outdir);

  // --- design ----------------------------------------------------------------
  auto chip = floorplan::alpha21364();
  power::WorkloadSynthesizer synth(chip);
  auto profile = power::worst_case_profile(chip, synth.synthesize_suite(8));
  core::DesignRequest req;
  req.chip_name = "Alpha21364";
  req.tile_powers = profile.tile_powers();
  auto res = core::design_cooling_system(req);

  const auto write = [&](const std::string& name, auto&& writer) {
    std::ofstream out(outdir / name);
    writer(out);
    std::printf("wrote %s\n", (outdir / name).string().c_str());
  };

  // --- artifacts ---------------------------------------------------------------
  write("design.json",
        [&](std::ostream& o) { o << io::design_result_to_json(res) << '\n'; });

  auto passive = tec::ElectroThermalSystem::assemble(req.spec, TileMask(),
                                                     req.tile_powers, req.device);
  auto cooled = tec::ElectroThermalSystem::assemble(req.spec, res.deployment,
                                                    req.tile_powers, req.device);
  auto op0 = passive.solve(0.0);
  auto op1 = cooled.solve(res.current);

  write("tile_power_w.csv", [&](std::ostream& o) {
    io::write_csv_grid(o, req.tile_powers, 12, 12);
  });
  write("temps_no_tec_c.csv", [&](std::ostream& o) {
    linalg::Vector c = op0->tile_temperatures;
    for (std::size_t k = 0; k < c.size(); ++k) c[k] = thermal::to_celsius(c[k]);
    io::write_csv_grid(o, c, 12, 12);
  });
  write("temps_with_tec_c.csv", [&](std::ostream& o) {
    linalg::Vector c = op1->tile_temperatures;
    for (std::size_t k = 0; k < c.size(); ++k) c[k] = thermal::to_celsius(c[k]);
    io::write_csv_grid(o, c, 12, 12);
  });

  // Figure-6 series: h_kl(i) for the hottest tile vs a TEC hot node.
  write("fig6_hkl.csv", [&](std::ostream& o) {
    const double lm = *tec::runaway_limit(cooled);
    const std::size_t k = cooled.model().silicon_node({4, 4});
    const std::size_t l = cooled.model().tec_hot_node(cooled.model().tec_tiles().front());
    linalg::Vector xs, ys;
    for (int s = 0; s <= 40; ++s) {
      const double i = 0.999 * lm * double(s) / 40.0;
      auto eval = core::ResponseEvaluator::at(cooled, i);
      xs.resize(xs.size() + 1);
      ys.resize(ys.size() + 1);
      xs[xs.size() - 1] = i;
      ys[ys.size() - 1] = eval->h_column(l)[k];
    }
    io::write_csv_table(o, {"current_a", "h_kl"}, {xs, ys});
  });

  write("system_matrix.mtx", [&](std::ostream& o) {
    io::write_matrix_market(o, cooled.system_matrix(res.current));
  });

  std::printf("done: %s designs exported to %s\n", res.success ? "successful" : "FAILED",
              outdir.string().c_str());
  return res.success ? 0 : 1;
}
