/// Admission implies the premise of Lemma 1: every StackSpec that validate()
/// accepts assembles to a positive-definite, irreducible Stieltjes G with a
/// finite passive solution.
///
/// The mutant corpus starts from the shipped example specs (plus the paper's
/// package with its secondary heat path switched on, so the secondary-path
/// resistances are admitted and checked too) and replaces one numeric field
/// at a time — a thickness, conductivity, heat capacity, the ambient, a
/// resistance, a die power, a chip offset or side — with each value of a
/// fixed list: 0, −1, 1e-300, 4294967297, 1e308, and every StackSpec range
/// bound with its nextafter neighbours. Grid and slab counts stay as they
/// are. The corpus is a fixed product, so the test is deterministic.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "io/spec_json.h"
#include "linalg/properties.h"
#include "linalg/sparse_cholesky.h"
#include "thermal/package_model.h"
#include "thermal/stack_spec.h"

namespace tfc::thermal {
namespace {

/// One mutable numeric field of a spec, by name.
struct Field {
  std::string name;
  std::function<double&(StackSpec&)> ref;
};

std::vector<Field> numeric_fields(const StackSpec& spec) {
  std::vector<Field> out;
  const auto add = [&](std::string name, std::function<double&(StackSpec&)> ref) {
    out.push_back({std::move(name), std::move(ref)});
  };
  for (std::size_t c = 0; c < spec.chips.size(); ++c) {
    const std::string chip = "chip" + std::to_string(c);
    add(chip + ".width", [c](StackSpec& s) -> double& { return s.chips[c].width; });
    add(chip + ".height", [c](StackSpec& s) -> double& { return s.chips[c].height; });
    add(chip + ".x", [c](StackSpec& s) -> double& { return s.chips[c].x; });
    add(chip + ".y", [c](StackSpec& s) -> double& { return s.chips[c].y; });
    for (std::size_t l = 0; l < spec.chips[c].layers.size(); ++l) {
      const std::string layer = chip + ".layer" + std::to_string(l);
      add(layer + ".thickness",
          [c, l](StackSpec& s) -> double& { return s.chips[c].layers[l].thickness; });
      add(layer + ".conductivity", [c, l](StackSpec& s) -> double& {
        return s.chips[c].layers[l].material.thermal_conductivity;
      });
      add(layer + ".heat_capacity", [c, l](StackSpec& s) -> double& {
        return s.chips[c].layers[l].material.volumetric_heat_capacity;
      });
      add(layer + ".power_w",
          [c, l](StackSpec& s) -> double& { return s.chips[c].layers[l].power_w; });
    }
  }
  add("spreader.side", [](StackSpec& s) -> double& { return s.spreader_side; });
  add("spreader.thickness", [](StackSpec& s) -> double& { return s.spreader_thickness; });
  add("spreader.conductivity",
      [](StackSpec& s) -> double& { return s.spreader_material.thermal_conductivity; });
  add("spreader.heat_capacity",
      [](StackSpec& s) -> double& { return s.spreader_material.volumetric_heat_capacity; });
  add("sink.side", [](StackSpec& s) -> double& { return s.sink_side; });
  add("sink.thickness", [](StackSpec& s) -> double& { return s.sink_thickness; });
  add("sink.conductivity",
      [](StackSpec& s) -> double& { return s.sink_material.thermal_conductivity; });
  add("sink.heat_capacity",
      [](StackSpec& s) -> double& { return s.sink_material.volumetric_heat_capacity; });
  add("convection_resistance",
      [](StackSpec& s) -> double& { return s.convection_resistance; });
  add("ambient_k", [](StackSpec& s) -> double& { return s.ambient; });
  if (spec.model_secondary_path) {
    add("c4_resistance", [](StackSpec& s) -> double& { return s.c4_resistance; });
    add("substrate_to_board_resistance",
        [](StackSpec& s) -> double& { return s.substrate_to_board_resistance; });
    add("board_convection_resistance",
        [](StackSpec& s) -> double& { return s.board_convection_resistance; });
  }
  return out;
}

std::vector<double> mutant_values() {
  std::vector<double> values = {0.0, -1.0, 1e-300, 4294967297.0, 1e308};
  for (double bound : {StackSpec::kMinLength, StackSpec::kMaxLength,
                       StackSpec::kMinConductivity, StackSpec::kMaxConductivity,
                       StackSpec::kMinHeatCapacity, StackSpec::kMaxHeatCapacity,
                       StackSpec::kMinAmbient, StackSpec::kMaxAmbient,
                       StackSpec::kMinResistance, StackSpec::kMaxResistance,
                       StackSpec::kMaxDiePower}) {
    values.push_back(std::nextafter(bound, -std::numeric_limits<double>::infinity()));
    values.push_back(bound);
    values.push_back(std::nextafter(bound, std::numeric_limits<double>::infinity()));
  }
  return values;
}

/// Empty when \p spec meets the premise of Lemma 1, else what failed.
std::string lemma1_failure(const StackSpec& spec) {
  auto shared = std::make_shared<const StackSpec>(spec);
  PackageModel model = PackageModel::build(shared);
  model.set_tile_powers(shared->tile_powers());
  const linalg::SparseMatrix g = model.network().conductance_matrix();
  if (!linalg::is_stieltjes(g)) return "G is not Stieltjes";
  if (!linalg::is_irreducible(g)) return "G is reducible";
  const auto factor = linalg::SparseCholeskyFactor::factor(g);
  if (!factor) return "the Cholesky factorization of G failed";
  const linalg::Vector theta = factor->solve(model.network().rhs(model.ambient()));
  for (std::size_t i = 0; i < theta.size(); ++i) {
    if (!std::isfinite(theta[i])) return "the passive theta is not finite";
  }
  return "";
}

TEST(SpecAdmission, EveryAdmittedMutantGivesAPdStieltjesG) {
  std::vector<std::pair<std::string, StackSpec>> bases;
  for (const char* name : {"paper_single_die", "stacked_2die", "dual_chip_shared_sink"}) {
    bases.emplace_back(name, io::load_stack_spec(std::string(TFC_EXAMPLES_DIR) + "/" +
                                                 name + ".json"));
  }
  StackSpec secondary = bases.front().second;
  secondary.model_secondary_path = true;
  bases.emplace_back("paper_single_die+secondary_path", std::move(secondary));

  const std::vector<double> values = mutant_values();
  std::size_t refused = 0, assembled = 0;
  for (const auto& [base_name, base] : bases) {
    ASSERT_EQ(lemma1_failure(base), "") << base_name;
    for (const Field& field : numeric_fields(base)) {
      for (double value : values) {
        StackSpec mutant = base;
        field.ref(mutant) = value;
        try {
          mutant.validate();
        } catch (const std::invalid_argument&) {
          ++refused;
          continue;
        }
        ++assembled;
        char shown[32];
        std::snprintf(shown, sizeof(shown), "%.17g", value);
        EXPECT_EQ(lemma1_failure(mutant), "")
            << base_name << ": " << field.name << " = " << shown;
      }
    }
  }
  // Both outcomes occur: the corpus probes the boundary from both sides.
  EXPECT_GT(refused, 0u);
  EXPECT_GT(assembled, 0u);
  std::printf("spec admission corpus: %zu refused, %zu assembled\n", refused, assembled);
}

}  // namespace
}  // namespace tfc::thermal
