// Geomagnetic-storm density enhancement.
//
// Storm-time Joule heating expands the thermosphere, raising density at a
// fixed altitude; the response grows with both storm intensity and altitude
// (Oliveira & Zesta 2019).  We model the enhancement as a factor linear in
// the Dst excursion beyond a quiet offset, with an altitude-dependent
// sensitivity calibrated so that a -400 nT super-storm gives roughly 5x
// density at Starlink's 550 km shell (the factor Starlink reported for May
// 2024) and a -100 nT moderate storm gives roughly 1.8x.
#pragma once

#include "spaceweather/dst_index.hpp"

namespace cosmicdance::atmosphere {

/// Dst must exceed this (nT below zero) before any enhancement.
inline constexpr double kQuietOffsetNt = 20.0;
/// Enhancement per 100 nT of excursion at the reference altitude.
inline constexpr double kSensitivityAtReference = 1.05;
inline constexpr double kReferenceAltitudeKm = 550.0;
/// The sensitivity scales ~linearly with altitude within LEO, clamped to
/// [kMinAltitudeScale, kMaxAltitudeScale] of the reference value.
inline constexpr double kMinAltitudeScale = 0.3;
inline constexpr double kMaxAltitudeScale = 2.0;

/// Multiplicative storm enhancement factor (>= 1).
[[nodiscard]] double storm_enhancement_factor(double altitude_km,
                                              double dst_nt) noexcept;

/// Storm-time density: quiet-time piecewise-exponential baseline times the
/// enhancement factor for the Dst value at `jd`.  Hours outside the Dst
/// series use the quiet baseline.
class StormDensityModel {
 public:
  explicit StormDensityModel(const spaceweather::DstIndex* dst);

  /// Density in kg/m^3 at the given altitude and time.
  [[nodiscard]] double density_kg_m3(double altitude_km, double jd) const noexcept;

  /// The enhancement factor alone at the given altitude and time.
  [[nodiscard]] double factor(double altitude_km, double jd) const noexcept;

 private:
  const spaceweather::DstIndex* dst_;  ///< non-owning; may be nullptr (quiet)
};

}  // namespace cosmicdance::atmosphere
