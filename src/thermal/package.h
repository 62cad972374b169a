/// \file package.h
/// \brief Chip-package geometry: die, TIM, heat spreader, heat sink,
/// convection — the stack of Figure 2 in the paper.
///
/// Defaults follow HotSpot 4.1 (the paper's own parameter source for
/// "silicon thermal conductivity, convection, etc.") scaled to the paper's
/// 6 mm × 6 mm die divided into 12 × 12 tiles of 0.5 mm — the lateral
/// footprint of one thin-film TEC device.
#pragma once

#include <cstddef>

#include "thermal/material.h"

namespace tfc::thermal {

/// Kelvin offset of 0 °C; the model computes absolute temperatures because
/// Peltier heat α·i·θ scales with absolute temperature (paper's "ground node"
/// is absolute zero).
inline constexpr double kCelsiusToKelvin = 273.15;

inline double to_kelvin(double celsius) { return celsius + kCelsiusToKelvin; }
inline double to_celsius(double kelvin) { return kelvin - kCelsiusToKelvin; }

/// Full package description.
struct PackageGeometry {
  // --- die ---------------------------------------------------------------
  double die_width = 6e-3;   ///< [m]
  double die_height = 6e-3;  ///< [m]
  double die_thickness = 0.3e-3;
  Material die_material = silicon();
  /// Tiling of the silicon layer; each tile matches one TEC footprint
  /// (0.5 mm × 0.5 mm, Section III.A).
  std::size_t tile_rows = 12;
  std::size_t tile_cols = 12;

  // --- TIM ---------------------------------------------------------------
  double tim_thickness = 50e-6;
  Material tim_material = thermal_interface();

  // --- heat spreader -----------------------------------------------------
  double spreader_side = 30e-3;
  double spreader_thickness = 1e-3;
  Material spreader_material = copper();

  // --- heat sink ---------------------------------------------------------
  double sink_side = 60e-3;
  double sink_thickness = 6.9e-3;
  Material sink_material = copper();

  // --- convection --------------------------------------------------------
  /// Total sink-to-ambient convection resistance [K/W] (HotSpot r_convec).
  double convection_resistance = 0.95;
  /// Ambient temperature [K] (HotSpot default 45 °C).
  double ambient = to_kelvin(45.0);

  // --- secondary heat path (optional; HotSpot models it too) --------------
  /// Model the die → C4 bumps → package substrate → board → ambient path.
  bool model_secondary_path = false;
  /// Total die-to-substrate resistance through the C4/underfill layer [K/W].
  double c4_resistance = 20.0;
  /// Substrate-to-board (socket/balls) resistance [K/W].
  double substrate_to_board_resistance = 5.0;
  /// Board-to-ambient convection resistance [K/W].
  double board_convection_resistance = 15.0;

  double tile_pitch_x() const { return die_width / double(tile_cols); }
  double tile_pitch_y() const { return die_height / double(tile_rows); }
  double tile_area() const { return tile_pitch_x() * tile_pitch_y(); }
  std::size_t tile_count() const { return tile_rows * tile_cols; }

  double spreader_overhang() const { return 0.5 * (spreader_side - die_width); }
  double sink_overhang() const { return 0.5 * (sink_side - spreader_side); }
};

}  // namespace tfc::thermal
