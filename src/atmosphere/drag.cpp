#include "atmosphere/drag.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"
#include "orbit/constants.hpp"

namespace cosmicdance::atmosphere {

double drag_acceleration_ms2(double density_kg_m3, double speed_ms,
                             double ballistic_m2_kg) noexcept {
  return 0.5 * density_kg_m3 * speed_ms * speed_ms * ballistic_m2_kg;
}

double circular_decay_rate_km_per_day(double altitude_km, double density_kg_m3,
                                      double ballistic_m2_kg) {
  const orbit::GravityModel g = orbit::wgs72();
  if (altitude_km < -g.radius_earth_km) {
    throw ValidationError("altitude below Earth's center");
  }
  const double a_m = (altitude_km + g.radius_earth_km) * 1000.0;
  const double mu_m = g.mu * 1e9;  // km^3/s^2 -> m^3/s^2
  const double da_dt_ms = -std::sqrt(mu_m * a_m) * density_kg_m3 * ballistic_m2_kg;
  return da_dt_ms * units::kSecondsPerDay / 1000.0;  // m/s -> km/day
}

double bstar_from_ballistic(double ballistic_m2_kg, double density_ratio) noexcept {
  return 0.5 * kBstarReferenceDensity * ballistic_m2_kg * density_ratio;
}

}  // namespace cosmicdance::atmosphere
