#include "orbit/frames.hpp"

#include <cmath>

#include "common/units.hpp"
#include "orbit/constants.hpp"
#include "timeutil/sidereal.hpp"

namespace cosmicdance::orbit {
namespace {

Vec3 rotate_z(const Vec3& v, double angle) noexcept {
  const double c = std::cos(angle);
  const double s = std::sin(angle);
  return {c * v[0] + s * v[1], -s * v[0] + c * v[1], v[2]};
}

}  // namespace

Vec3 teme_to_ecef(const Vec3& r_teme_km, double jd_ut1) noexcept {
  return rotate_z(r_teme_km, timeutil::gmst_radians(jd_ut1));
}

Geodetic ecef_to_geodetic(const Vec3& r) noexcept {
  const GravityModel g = wgs84();
  const double a = g.radius_earth_km;
  const double f = kWgs84Flattening;
  const double e2 = f * (2.0 - f);

  Geodetic geo;
  geo.longitude_rad = std::atan2(r[1], r[0]);

  const double rho = std::sqrt(r[0] * r[0] + r[1] * r[1]);
  if (rho < 1e-9) {
    // Polar axis: the iteration below divides by cos(lat); handle directly.
    geo.latitude_rad = r[2] >= 0.0 ? units::kPi / 2.0 : -units::kPi / 2.0;
    geo.altitude_km = std::fabs(r[2]) - a * std::sqrt(1.0 - e2);
    return geo;
  }
  double lat = std::atan2(r[2], rho * (1.0 - e2));  // first guess
  double alt = 0.0;
  for (int i = 0; i < 10; ++i) {
    const double sin_lat = std::sin(lat);
    const double n = a / std::sqrt(1.0 - e2 * sin_lat * sin_lat);
    alt = rho / std::cos(lat) - n;
    const double lat_next = std::atan2(r[2], rho * (1.0 - e2 * n / (n + alt)));
    if (std::fabs(lat_next - lat) < 1e-12) {
      lat = lat_next;
      break;
    }
    lat = lat_next;
  }
  geo.latitude_rad = lat;
  geo.altitude_km = alt;
  return geo;
}

}  // namespace cosmicdance::orbit
