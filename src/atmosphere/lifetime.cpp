#include "atmosphere/lifetime.hpp"

#include "atmosphere/drag.hpp"
#include "atmosphere/exponential.hpp"
#include "atmosphere/storm_density.hpp"
#include "common/error.hpp"
#include "common/units.hpp"
#include "timeutil/hour_axis.hpp"

namespace cosmicdance::atmosphere {

double decay_lifetime_days(double altitude_km, double ballistic_m2_kg,
                           const LifetimeConfig& config) {
  if (altitude_km <= kLifetimeReentryAltitudeKm) return 0.0;
  if (ballistic_m2_kg <= 0.0) {
    throw ValidationError("ballistic coefficient must be positive");
  }
  if (config.step_hours <= 0.0) {
    throw ValidationError("lifetime integration step must be positive");
  }

  const StormDensityModel storm_model(config.dst);
  const double dt_days = config.step_hours / units::kHoursPerDay;
  double altitude = altitude_km;
  double elapsed = 0.0;
  while (elapsed < config.max_days) {
    double rho = density_kg_m3(altitude);
    if (config.dst != nullptr) {
      rho = storm_model.density_kg_m3(altitude, config.start_jd + elapsed);
    }
    const double rate = circular_decay_rate_km_per_day(altitude, rho,
                                                       ballistic_m2_kg);
    altitude += rate * dt_days;
    elapsed += dt_days;
    if (altitude <= kLifetimeReentryAltitudeKm) return elapsed;
  }
  return config.max_days;
}

}  // namespace cosmicdance::atmosphere
