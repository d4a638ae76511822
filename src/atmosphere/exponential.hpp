// Piecewise-exponential thermosphere density model.
//
// The classic engineering model (Vallado, "Fundamentals of Astrodynamics",
// Table 8-4; derived from the US Standard Atmosphere 1976 / CIRA-72): the
// atmosphere is split into altitude bands, each with a nominal base density
// and scale height, and density decays exponentially within a band.  This
// is the quiet-time baseline; storm response is layered on top by
// StormDensityModel.
#pragma once

namespace cosmicdance::atmosphere {

/// Quiet-time atmospheric density (kg/m^3) at a geodetic altitude (km).
/// Altitudes above the last band (1000 km) extrapolate with the final scale
/// height; negative altitudes clamp to sea level.  noexcept by design: the
/// model is total.
[[nodiscard]] double density_kg_m3(double altitude_km) noexcept;

}  // namespace cosmicdance::atmosphere
