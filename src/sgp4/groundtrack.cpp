#include "sgp4/groundtrack.hpp"


#include "common/error.hpp"
#include "common/units.hpp"

namespace cosmicdance::sgp4 {

std::vector<GroundPoint> ground_track(const Sgp4Propagator& propagator,
                                      double jd_start, double duration_minutes,
                                      double step_minutes) {
  if (duration_minutes <= 0.0 || step_minutes <= 0.0) {
    throw ValidationError("ground track duration and step must be positive");
  }
  std::vector<GroundPoint> track;
  track.reserve(static_cast<std::size_t>(duration_minutes / step_minutes) + 1);
  for (double minutes = 0.0; minutes <= duration_minutes; minutes += step_minutes) {
    const double jd = jd_start + minutes / units::kMinutesPerDay;
    const orbit::StateVector sv = propagator.propagate_jd(jd);
    const orbit::Vec3 ecef = orbit::teme_to_ecef(sv.position_km, jd);
    const orbit::Geodetic geo = orbit::ecef_to_geodetic(ecef);
    GroundPoint point;
    point.jd = jd;
    point.latitude_deg = units::rad2deg(geo.latitude_rad);
    double lon = units::rad2deg(geo.longitude_rad);
    if (lon >= 180.0) lon -= 360.0;
    if (lon < -180.0) lon += 360.0;
    point.longitude_deg = lon;
    point.altitude_km = geo.altitude_km;
    track.push_back(point);
  }
  return track;
}

}  // namespace cosmicdance::sgp4
