#include "atmosphere/stationkeeping_budget.hpp"

#include "atmosphere/drag.hpp"
#include "atmosphere/exponential.hpp"
#include "atmosphere/storm_density.hpp"
#include "common/error.hpp"
#include "common/units.hpp"
#include "orbit/constants.hpp"
#include "orbit/elements.hpp"

namespace cosmicdance::atmosphere {

double stationkeeping_delta_v_ms(double altitude_km, double ballistic_m2_kg,
                                 double jd_start, double days,
                                 const spaceweather::DstIndex* dst,
                                 double step_hours) {
  if (days < 0.0) throw ValidationError("budget window must be non-negative");
  if (step_hours <= 0.0) throw ValidationError("budget step must be positive");
  if (ballistic_m2_kg <= 0.0) {
    throw ValidationError("ballistic coefficient must be positive");
  }

  const StormDensityModel storm_model(dst);
  const double speed_ms =
      orbit::circular_speed_kms(altitude_km + orbit::wgs72().radius_earth_km) *
      1000.0;
  double delta_v = 0.0;
  const double dt_seconds = step_hours * units::kSecondsPerHour;
  for (double elapsed = 0.0; elapsed < days * units::kHoursPerDay;
       elapsed += step_hours) {
    const double jd = jd_start + elapsed / units::kHoursPerDay;
    const double rho = storm_model.density_kg_m3(altitude_km, jd);
    delta_v += drag_acceleration_ms2(rho, speed_ms, ballistic_m2_kg) * dt_seconds;
  }
  return delta_v;
}

}  // namespace cosmicdance::atmosphere
