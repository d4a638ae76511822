// Earth gravity model constants for orbital mechanics and SGP4.
//
// SGP4 is defined against WGS-72 (the constants NORAD used when fitting the
// element sets), so that is the only model SGP4 and the conversions use;
// WGS-84 is provided for the geodetic ellipsoid (orbit/frames).
#pragma once

#include <cmath>

namespace cosmicdance::orbit {

/// Bundle of Earth constants in the units SGP4 expects.
struct GravityModel {
  double mu = 0.0;             ///< km^3/s^2
  double radius_earth_km = 0.0;
  double xke = 0.0;            ///< sqrt(mu) in (earth radii)^1.5 / min
  double tumin = 0.0;          ///< 1/xke, minutes per canonical time unit
  double j2 = 0.0;
  double j3 = 0.0;
  double j4 = 0.0;
  double j3oj2 = 0.0;
};

/// WGS-72 constants (Vallado's wgs72 option; canonical for SGP4/TLE).
[[nodiscard]] inline GravityModel wgs72() noexcept {
  GravityModel g;
  g.mu = 398600.8;
  g.radius_earth_km = 6378.135;
  g.xke = 60.0 / std::sqrt(g.radius_earth_km * g.radius_earth_km *
                           g.radius_earth_km / g.mu);
  g.tumin = 1.0 / g.xke;
  g.j2 = 0.001082616;
  g.j3 = -0.00000253881;
  g.j4 = -0.00000165597;
  g.j3oj2 = g.j3 / g.j2;
  return g;
}

/// WGS-84 constants.
[[nodiscard]] inline GravityModel wgs84() noexcept {
  GravityModel g;
  g.mu = 398600.5;
  g.radius_earth_km = 6378.137;
  g.xke = 60.0 / std::sqrt(g.radius_earth_km * g.radius_earth_km *
                           g.radius_earth_km / g.mu);
  g.tumin = 1.0 / g.xke;
  g.j2 = 0.00108262998905;
  g.j3 = -0.00000253215306;
  g.j4 = -0.00000161098761;
  g.j3oj2 = g.j3 / g.j2;
  return g;
}

/// WGS-84 flattening for geodetic conversion.
inline constexpr double kWgs84Flattening = 1.0 / 298.257223563;

}  // namespace cosmicdance::orbit
