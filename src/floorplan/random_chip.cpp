#include "floorplan/random_chip.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <stdexcept>

namespace tfc::floorplan {

namespace {

// Section VI.B's generation parameters.
constexpr std::size_t kTileRows = 12;  ///< divisible by the 3-row bands below
constexpr std::size_t kTileCols = 12;
/// Fraction of total power assigned to the two hot units.
constexpr double kHotPowerFraction = 0.30;
/// Target fraction of area covered by the two hot units.
constexpr double kHotAreaFraction = 0.10;
constexpr double kMinTotalPower = 15.0;  ///< [W]
constexpr double kMaxTotalPower = 25.0;  ///< [W]
/// Base seed; the chip index is mixed in.
constexpr std::uint64_t kSeed = 2010;

}  // namespace

std::string hypothetical_chip_name(std::size_t index) {
  if (index < 1 || index > 99) {
    throw std::invalid_argument("hypothetical_chip_name: index must be in [1, 99]");
  }
  std::string s = std::to_string(index);
  if (s.size() == 1) s = "0" + s;
  return "HC" + s;
}

Floorplan hypothetical_chip(std::size_t index) {
  if (index == 0) throw std::invalid_argument("hypothetical_chip: index is 1-based");

  std::mt19937_64 rng(kSeed ^ (0x9e3779b97f4a7c15ULL * (index + 1)));

  // --- partition: 3-row bands cut into 3×w segments, w ∈ [2, 5] ------------
  // (every unit has 6–15 tiles, inside the paper's 5–15 band; compact blocks
  // rather than thin strips so the hot units form genuine hot spots).
  std::vector<FunctionalUnit> units;
  const std::size_t band_h = 3;
  for (std::size_t band = 0; band < kTileRows / band_h; ++band) {
    std::size_t col = 0;
    while (col < kTileCols) {
      const std::size_t remaining = kTileCols - col;
      std::size_t w;
      if (remaining <= 5) {
        w = remaining;
      } else {
        const std::size_t max_w = std::min<std::size_t>(5, remaining - 2);
        std::uniform_int_distribution<std::size_t> pick(2, max_w);
        w = pick(rng);
      }
      FunctionalUnit u;
      u.name = "U" + std::to_string(units.size() + 1);
      u.rects = {{band * band_h, col, band_h, w}};
      units.push_back(std::move(u));
      col += w;
    }
  }

  // --- total chip power -----------------------------------------------------
  std::uniform_real_distribution<double> total_dist(kMinTotalPower, kMaxTotalPower);
  const double total_power = total_dist(rng);

  // --- choose two hot units covering ~kHotAreaFraction of the grid ---------
  // The pair's tile budget scales with total power so the hot-spot *flux
  // density* stays in the regime the paper evaluates (its ten chips all land
  // in a narrow 89–95 °C band despite totals spanning 15–25 W).
  const double grid_tiles = double(kTileRows * kTileCols);
  const double mid_power = 0.5 * (kMinTotalPower + kMaxTotalPower);
  const double target =
      0.8 * kHotAreaFraction * grid_tiles * (total_power / mid_power);
  std::vector<std::size_t> order(units.size());
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::shuffle(order.begin(), order.end(), rng);

  std::size_t hot_a = 0, hot_b = 1;
  double best = 1e300;
  bool found = false;
  for (std::size_t x = 0; x < order.size() && !found; ++x) {
    for (std::size_t y = x + 1; y < order.size(); ++y) {
      const double total =
          double(units[order[x]].tile_count() + units[order[y]].tile_count());
      const double err = std::abs(total - target);
      if (err < best) {
        best = err;
        hot_a = order[x];
        hot_b = order[y];
      }
      if (err <= 0.2 * target) {  // close enough: keep the random flavour
        hot_a = order[x];
        hot_b = order[y];
        found = true;
        break;
      }
    }
  }
  units[hot_a].name = "HotA";
  units[hot_b].name = "HotB";

  // --- assign powers --------------------------------------------------------
  // The paper's "typically 30 %" hot-pair share: drawn per chip from a band
  // just above the nominal fraction so every instance develops a genuine hot
  // spot (the paper's ten chips all exceed the 85 °C limit without TECs).
  std::uniform_real_distribution<double> frac_dist(kHotPowerFraction + 0.02,
                                                   kHotPowerFraction + 0.06);
  const double hot_power = frac_dist(rng) * total_power;
  const double cold_power = total_power - hot_power;

  const double hot_tiles =
      double(units[hot_a].tile_count() + units[hot_b].tile_count());
  units[hot_a].peak_power = hot_power * double(units[hot_a].tile_count()) / hot_tiles;
  units[hot_b].peak_power = hot_power * double(units[hot_b].tile_count()) / hot_tiles;

  // Background units: area-proportional with ±30 % density jitter, then
  // renormalized so the totals are exact.
  std::uniform_real_distribution<double> jitter(0.7, 1.3);
  double weight_sum = 0.0;
  std::vector<double> weights(units.size(), 0.0);
  for (std::size_t u = 0; u < units.size(); ++u) {
    if (u == hot_a || u == hot_b) continue;
    weights[u] = double(units[u].tile_count()) * jitter(rng);
    weight_sum += weights[u];
  }
  for (std::size_t u = 0; u < units.size(); ++u) {
    if (u == hot_a || u == hot_b) continue;
    units[u].peak_power = cold_power * weights[u] / weight_sum;
  }

  Floorplan plan(kTileRows, kTileCols, std::move(units));
  plan.validate();
  return plan;
}

}  // namespace tfc::floorplan
