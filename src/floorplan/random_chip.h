/// \file random_chip.h
/// \brief Generator for the hypothetical benchmark chips HC01–HC10
/// (Section VI.B).
///
/// Each chip is a 12 × 12 tile grid (6 mm × 6 mm) randomly divided into
/// functional units of 5–15 tiles. Two randomly selected units imitate the
/// non-uniform power distribution: together they consume ~30 % of the chip
/// power on ~10 % of the area. Total chip power is drawn from [15, 25] W.
/// Fully deterministic in the chip index.
#pragma once

#include "floorplan/floorplan.h"

namespace tfc::floorplan {

/// Benchmark names "HC01".."HC10" map to indices 1..10.
std::string hypothetical_chip_name(std::size_t index);

/// Generate hypothetical chip \p index (1-based, matching HCxx naming) with
/// Section VI.B's fixed parameters. The returned floorplan is validated; the
/// two hot units are named "HotA" and "HotB". Throws std::invalid_argument
/// on index 0.
Floorplan hypothetical_chip(std::size_t index);

}  // namespace tfc::floorplan
