// Reference-frame conversions: TEME -> ECEF -> geodetic.
//
// SGP4 outputs TEME (true equator, mean equinox) states; geolocating a
// satellite requires rotating by GMST into an Earth-fixed frame and then an
// ellipsoidal geodetic conversion.  Polar motion is neglected (meters-level,
// irrelevant at km-scale analysis).
#pragma once

#include "orbit/state.hpp"

namespace cosmicdance::orbit {

/// Geodetic coordinates on the WGS-84 ellipsoid.
struct Geodetic {
  double latitude_rad = 0.0;   ///< [-pi/2, pi/2]
  double longitude_rad = 0.0;  ///< (-pi, pi]
  double altitude_km = 0.0;    ///< height above the ellipsoid
};

/// Rotate a TEME position into the pseudo Earth-fixed frame for the given
/// UT1 Julian date (rotation about Z by GMST).
[[nodiscard]] Vec3 teme_to_ecef(const Vec3& r_teme_km, double jd_ut1) noexcept;

/// ECEF -> geodetic via the iterative Bowring-style method.
[[nodiscard]] Geodetic ecef_to_geodetic(const Vec3& r_ecef_km) noexcept;

}  // namespace cosmicdance::orbit
