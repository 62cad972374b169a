/// \file bench_validation.cpp
/// \brief Reproduce the **Section VI model validation**: "We have first
/// validated our thermal model against HotSpot 4.1 ... The two results
/// agreed closely – the worst-case difference is less than 1.5 ºC."
///
/// Our stand-in for HotSpot/FEM is the same package PDE discretized much
/// finer (4× lateral refinement, 3 z-slabs in die and spreader). The compact
/// model's per-tile temperatures are compared for the Alpha power map and
/// two hypothetical chips, and for Alpha with TEC devices in the stack (one
/// reference device per fine cell under each TEC tile, each carrying 1/16 of
/// the device's thermal link).

#include <cstdio>

#include "bench_common.h"
#include "thermal/validation.h"

int main() {
  using namespace tfc;

  std::printf("=== Compact model vs fine-grid reference (HotSpot-4.1 stand-in) ===\n\n");
  std::printf("%-14s %10s %10s %12s %12s\n", "case", "max|d| C", "mean|d| C",
              "coarse n", "reference n");

  double worst = 0.0;
  const auto run = [&](const std::string& name, const TileMask& deployment,
                       const linalg::Vector& powers) {
    auto rep = thermal::validate_against_reference(
        *thermal::paper_package(), deployment,
        tec::TecDeviceParams::chowdhury_superlattice().thermal_link(), powers);
    std::printf("%-14s %10.3f %10.3f %12zu %12zu\n", name.c_str(), rep.max_abs_diff,
                rep.mean_abs_diff, rep.coarse_nodes, rep.reference_nodes);
    return rep.max_abs_diff;
  };
  const auto run_bare = [&](const std::string& name, const linalg::Vector& powers) {
    worst = std::max(worst, run(name, TileMask(), powers));
  };

  // Bare packages — the paper's protocol ("steady state analysis without the
  // TEC devices"), whose published agreement is < 1.5 °C worst case.
  run_bare("Alpha", bench::worst_case_map(floorplan::alpha21364()));
  for (std::size_t i : {std::size_t{2}, std::size_t{7}}) {
    run_bare(floorplan::hypothetical_chip_name(i),
             bench::worst_case_map(floorplan::hypothetical_chip(i)));
  }

  // Extension beyond the paper's protocol: with the greedy TEC deployment in
  // the stack (passive devices), the discrete device lumping adds a little
  // extra discretization error at the covered tiles.
  const auto powers = bench::worst_case_map(floorplan::alpha21364());
  auto res = bench::design_with_fallback({"Alpha", powers});
  const double tec_diff = run("Alpha+TECs", res.deployment, powers);

  std::printf("\nworst case, bare packages (paper protocol): %.3f degC "
              "(paper: < 1.5 degC)\n",
              worst);
  std::printf("with passive TEC devices in the stack (extension): %.3f degC\n",
              tec_diff);
  return (worst < 1.5 && tec_diff < 2.5) ? 0 : 1;
}
