/// Seeded randomized sweeps asserting the library's physical and
/// matrix-theoretic invariants across arbitrary (valid) configurations —
/// failure injection for the assembly and solver paths.
#include <gtest/gtest.h>

#include <random>

#include "linalg/cholesky.h"
#include "linalg/properties.h"
#include "tec/electro_thermal.h"
#include "tec/runaway.h"

namespace tfc {
namespace {

struct FuzzCase {
  thermal::PackageGeometry geometry;
  TileMask deployment;
  linalg::Vector powers;
  double current_fraction = 0.0;  // of λ_m
};

FuzzCase make_case(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> grid(3, 7);
  std::uniform_real_distribution<double> die_mm(2.0, 8.0);
  std::uniform_real_distribution<double> frac(0.0, 0.9);
  std::uniform_real_distribution<double> power(0.0, 0.5);
  std::uniform_real_distribution<double> coin(0.0, 1.0);

  FuzzCase c;
  c.geometry.tile_rows = grid(rng);
  c.geometry.tile_cols = grid(rng);
  const double die = die_mm(rng) * 1e-3;
  c.geometry.die_width = die;
  c.geometry.die_height = die * double(c.geometry.tile_rows) /
                          double(c.geometry.tile_cols);  // square-ish tiles
  c.geometry.spreader_side = std::max(30e-3, die * 2.0);

  c.deployment = TileMask(c.geometry.tile_rows, c.geometry.tile_cols);
  c.powers = linalg::Vector(c.geometry.tile_count());
  bool any_tec = false;
  for (std::size_t t = 0; t < c.geometry.tile_count(); ++t) {
    c.powers[t] = power(rng);
    if (coin(rng) < 0.25) {
      c.deployment.set(t / c.geometry.tile_cols, t % c.geometry.tile_cols);
      any_tec = true;
    }
  }
  if (!any_tec) c.deployment.set(0, 0);
  c.current_fraction = frac(rng);
  return c;
}

class FuzzSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSweep, AssembledSystemSatisfiesAllInvariants) {
  const FuzzCase c = make_case(GetParam());
  auto sys = tec::ElectroThermalSystem::assemble(
      c.geometry, c.deployment, c.powers, tec::TecDeviceParams::chowdhury_superlattice());

  // Lemma 1: irreducible PD Stieltjes.
  const auto& g = sys.matrix_g();
  ASSERT_TRUE(g.is_symmetric(1e-12));
  ASSERT_TRUE(linalg::is_stieltjes(g));
  ASSERT_TRUE(linalg::is_irreducible(g));
  ASSERT_TRUE(linalg::is_positive_definite(g.to_dense()));

  // Theorem 1: solvable strictly below λ_m, unsolvable above.
  auto lm = tec::runaway_limit(sys);
  ASSERT_TRUE(lm.has_value());
  const double i = c.current_fraction * *lm;
  auto op = sys.solve(i);
  ASSERT_TRUE(op.has_value()) << "fraction " << c.current_fraction;
  EXPECT_FALSE(sys.solve(1.02 * *lm).has_value());

  // Physics: all temperatures at or above ambient minus rounding; energy
  // balance silicon power + TEC power == heat to ambient.
  const double ambient = c.geometry.ambient;
  double q_out = 0.0;
  for (std::size_t k = 0; k < sys.node_count(); ++k) {
    const double ga = sys.model().network().ambient_conductance(k);
    if (ga > 0.0) q_out += ga * (op->theta[k] - ambient);
  }
  const double p_in = linalg::sum(sys.model().tile_powers()) + op->tec_input_power;
  EXPECT_NEAR(q_out, p_in, 1e-6 * std::max(1.0, p_in)) << "energy imbalance";

  // Lemma 3 (sampled): response columns nonnegative below λ_m.
  auto f = linalg::CholeskyFactor::factor(sys.system_matrix(i).to_dense());
  ASSERT_TRUE(f.has_value());
  std::mt19937_64 rng(GetParam() ^ 0xabcdef);
  std::uniform_int_distribution<std::size_t> pick(0, sys.node_count() - 1);
  for (int rep = 0; rep < 3; ++rep) {
    auto col = f->inverse_column(pick(rng));
    for (std::size_t k = 0; k < col.size(); ++k) {
      ASSERT_GE(col[k], -1e-10) << "negative response entry";
    }
  }
}

TEST_P(FuzzSweep, MonotonicityInPower) {
  const FuzzCase c = make_case(GetParam() ^ 0x5555);
  auto sys = tec::ElectroThermalSystem::assemble(
      c.geometry, c.deployment, c.powers, tec::TecDeviceParams::chowdhury_superlattice());
  auto lm = tec::runaway_limit(sys);
  const double i = 0.3 * *lm;
  auto base = sys.solve(i);
  ASSERT_TRUE(base.has_value());

  // Raise one random tile's power: no node may cool (inverse positivity).
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<std::size_t> pick(0, c.geometry.tile_count() - 1);
  linalg::Vector powers = c.powers;
  powers[pick(rng)] += 0.4;
  auto hotter_sys = tec::ElectroThermalSystem::assemble(
      c.geometry, c.deployment, powers, tec::TecDeviceParams::chowdhury_superlattice());
  auto hotter = hotter_sys.solve(i);
  ASSERT_TRUE(hotter.has_value());
  for (std::size_t k = 0; k < base->theta.size(); ++k) {
    EXPECT_GE(hotter->theta[k] + 1e-10, base->theta[k]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u, 55u, 89u));

}  // namespace
}  // namespace tfc
