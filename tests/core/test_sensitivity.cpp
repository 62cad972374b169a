#include "core/sensitivity.h"

#include <gtest/gtest.h>

#include <memory>

namespace tfc::core {
namespace {

thermal::PackageGeometry small_geom() {
  thermal::PackageGeometry g;
  g.tile_rows = g.tile_cols = 6;
  g.die_width = g.die_height = 3e-3;
  return g;
}

std::shared_ptr<const thermal::StackSpec> small_spec() {
  return std::make_shared<const thermal::StackSpec>(
      thermal::StackSpec::single_die(small_geom()));
}

linalg::Vector hot_map() {
  linalg::Vector p(36, 0.10);
  p[2 * 6 + 2] = 0.65;
  p[2 * 6 + 3] = 0.65;
  return p;
}

TileMask deployment() {
  TileMask m(6, 6);
  m.set(2, 2);
  m.set(2, 3);
  return m;
}

TEST(Sensitivity, ReportsAllFiveParameters) {
  auto rows = device_sensitivities(small_spec(), hot_map(),
                                   tec::TecDeviceParams::chowdhury_superlattice(),
                                   deployment());
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0].parameter, "seebeck");
  EXPECT_EQ(rows[4].parameter, "g_cold_contact");
}

TEST(Sensitivity, SignsMatchPhysics) {
  auto rows = device_sensitivities(small_spec(), hot_map(),
                                   tec::TecDeviceParams::chowdhury_superlattice(),
                                   deployment());
  const auto find = [&](const std::string& name) {
    for (const auto& r : rows) {
      if (r.parameter == name) return r;
    }
    ADD_FAILURE() << name;
    return rows.front();
  };
  // Stronger Peltier coefficient cools (peak falls as α rises)…
  EXPECT_LT(find("seebeck").peak_per_unit_relative, 0.0);
  // …and lowers the runaway limit (more coupling per ampere).
  EXPECT_LT(find("seebeck").lambda_per_unit_relative, 0.0);
  // More electrical resistance heats.
  EXPECT_GT(find("resistance").peak_per_unit_relative, 0.0);
  // Better contacts cool and raise λ_m.
  EXPECT_LT(find("g_hot_contact").peak_per_unit_relative, 0.0);
  EXPECT_GT(find("g_hot_contact").lambda_per_unit_relative, 0.0);
  // Internal back-conduction hurts pumping.
  EXPECT_GT(find("internal_conductance").peak_per_unit_relative, 0.0);
  // Structural identity: λ_m is a property of the (G, D) pencil alone, and r
  // appears only in the power vector p(i) — so λ_m is exactly r-insensitive.
  EXPECT_NEAR(find("resistance").lambda_per_unit_relative, 0.0, 1e-6);
}

TEST(Sensitivity, InputValidation) {
  auto dev = tec::TecDeviceParams::chowdhury_superlattice();
  EXPECT_THROW(device_sensitivities(small_spec(), hot_map(), dev, TileMask()),
               std::invalid_argument);
  EXPECT_THROW(device_sensitivities(nullptr, hot_map(), dev, deployment()),
               std::invalid_argument);
}

}  // namespace
}  // namespace tfc::core
