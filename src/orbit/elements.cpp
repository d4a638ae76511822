#include "orbit/elements.hpp"

#include <cmath>
#include <string>

#include "common/error.hpp"
#include "common/units.hpp"
#include "orbit/constants.hpp"

namespace cosmicdance::orbit {

double mean_motion_revday_from_sma(double sma_km) {
  if (sma_km <= 0.0) {
    throw ValidationError("semi-major axis must be positive: " +
                          std::to_string(sma_km));
  }
  const double n_rad_per_sec = std::sqrt(wgs72().mu / (sma_km * sma_km * sma_km));
  return n_rad_per_sec * units::kSecondsPerDay / units::kTwoPi;
}

double sma_from_mean_motion_revday(double revs_per_day) {
  if (revs_per_day <= 0.0) {
    throw ValidationError("mean motion must be positive: " +
                          std::to_string(revs_per_day));
  }
  const double n_rad_per_sec = revs_per_day * units::kTwoPi / units::kSecondsPerDay;
  return std::cbrt(wgs72().mu / (n_rad_per_sec * n_rad_per_sec));
}

double altitude_km_from_mean_motion(double revs_per_day) {
  return sma_from_mean_motion_revday(revs_per_day) - wgs72().radius_earth_km;
}

double mean_motion_from_altitude_km(double altitude_km) {
  return mean_motion_revday_from_sma(altitude_km + wgs72().radius_earth_km);
}

double circular_speed_kms(double radius_km) {
  if (radius_km <= 0.0) {
    throw ValidationError("radius must be positive: " + std::to_string(radius_km));
  }
  return std::sqrt(wgs72().mu / radius_km);
}

}  // namespace cosmicdance::orbit
