#include "simulation/satellite.hpp"

#include <cmath>

#include "common/units.hpp"
#include "orbit/constants.hpp"

namespace cosmicdance::simulation {

std::string to_string(SatelliteMode mode) {
  switch (mode) {
    case SatelliteMode::kStaging:
      return "staging";
    case SatelliteMode::kRaising:
      return "raising";
    case SatelliteMode::kOperational:
      return "operational";
    case SatelliteMode::kOutage:
      return "outage";
    case SatelliteMode::kDecaying:
      return "decaying";
    case SatelliteMode::kDeorbiting:
      return "deorbiting";
    case SatelliteMode::kReentered:
      return "reentered";
  }
  return "unknown";
}

double SatelliteState::ballistic_m2_kg() const noexcept {
  switch (mode) {
    case SatelliteMode::kStaging:
    case SatelliteMode::kRaising:
      return kBallisticStaging;
    case SatelliteMode::kOperational:
    case SatelliteMode::kDeorbiting:
      return kBallisticOperational;
    case SatelliteMode::kOutage:
    case SatelliteMode::kDecaying:
      return config.ballistic_uncontrolled;
    case SatelliteMode::kReentered:
      break;
  }
  return config.ballistic_uncontrolled;
}

namespace {

// Shared J2 secular-rate prefactor: 1.5 * J2 * n * (Re/a)^2 in deg/day.
double j2_rate_prefactor(double altitude_km) noexcept {
  const orbit::GravityModel g = orbit::wgs72();
  const double a = altitude_km + g.radius_earth_km;
  const double n_rad_s = std::sqrt(g.mu / (a * a * a));
  const double re_over_a = g.radius_earth_km / a;
  const double rate_rad_s = 1.5 * g.j2 * n_rad_s * re_over_a * re_over_a;
  return rate_rad_s * units::kSecondsPerDay * units::kRadToDeg;
}

double argp_inclination_factor(double inclination_deg) noexcept {
  const double sin_i = std::sin(units::deg2rad(inclination_deg));
  return 2.0 - 2.5 * sin_i * sin_i;
}

}  // namespace

J2Drift::J2Drift(double inclination_deg) noexcept
    : raan_factor_(std::cos(units::deg2rad(inclination_deg))),
      argp_factor_(argp_inclination_factor(inclination_deg)) {}

J2Drift::Rates J2Drift::at(double altitude_km) const noexcept {
  const double prefactor = j2_rate_prefactor(altitude_km);
  return {-prefactor * raan_factor_, prefactor * argp_factor_};
}

}  // namespace cosmicdance::simulation
