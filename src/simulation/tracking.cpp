#include "simulation/tracking.hpp"

#include <algorithm>
#include <cmath>

#include "atmosphere/drag.hpp"
#include "common/units.hpp"
#include "orbit/constants.hpp"
#include "orbit/elements.hpp"

namespace cosmicdance::simulation {
namespace {

double wrap_deg(double deg) noexcept {
  double wrapped = std::fmod(deg, 360.0);
  if (wrapped < 0.0) wrapped += 360.0;
  return wrapped;
}

}  // namespace

TrackingSimulator::TrackingSimulator(TrackingConfig config, std::uint64_t seed)
    : config_(config), rng_(seed) {}

double TrackingSimulator::next_observation_jd(double previous_jd) {
  const double interval_hours =
      std::clamp(rng_.lognormal(kRefreshLognormalMu,
                                config_.refresh_lognormal_sigma),
                 kRefreshMinHours, kRefreshMaxHours);
  return previous_jd + interval_hours / units::kHoursPerDay;
}

tle::Tle TrackingSimulator::observe(const SatelliteState& satellite, double jd,
                                    double density_ratio,
                                    double decay_rate_km_per_day) {
  tle::Tle record;
  record.catalog_number = satellite.catalog_number;
  record.international_designator = satellite.international_designator;
  record.epoch_jd = jd;

  double observed_altitude =
      satellite.altitude_km + rng_.normal(0.0, config_.altitude_noise_km);
  if (rng_.bernoulli(config_.gross_error_probability)) {
    // Bad orbit fit: derived altitude lands far outside the shell; sample
    // log-uniform so the tail stretches to tens of thousands of km.
    const double log_lo = std::log(kGrossErrorMinAltitudeKm);
    const double log_hi = std::log(kGrossErrorMaxAltitudeKm);
    observed_altitude = std::exp(rng_.uniform(log_lo, log_hi));
  }
  observed_altitude = std::max(observed_altitude, 120.0);
  record.mean_motion_revday = orbit::mean_motion_from_altitude_km(observed_altitude);

  record.inclination_deg =
      std::clamp(satellite.config.inclination_deg +
                     rng_.normal(0.0, kInclinationNoiseDeg),
                 0.0, 180.0);
  record.raan_deg =
      wrap_deg(satellite.raan_deg + rng_.normal(0.0, kAngleNoiseDeg));
  record.arg_perigee_deg =
      wrap_deg(satellite.arg_perigee_deg + rng_.normal(0.0, kAngleNoiseDeg));
  record.mean_anomaly_deg =
      wrap_deg(satellite.mean_anomaly_deg + rng_.normal(0.0, kAngleNoiseDeg));
  record.eccentricity = std::clamp(
      satellite.config.eccentricity + rng_.normal(0.0, kEccentricityNoise),
      0.0, 0.01);

  // B* reflects the recently-fitted drag environment.
  const double bstar_clean = atmosphere::bstar_from_ballistic(
      satellite.ballistic_m2_kg(), density_ratio);
  record.bstar =
      bstar_clean * rng_.lognormal(0.0, config_.bstar_lognormal_sigma);

  // ndot/2 (rev/day^2) from the decay rate: dn/da = -1.5 n / a.
  const double a_km = observed_altitude + orbit::wgs72().radius_earth_km;
  const double dn_dt =
      -1.5 * record.mean_motion_revday / a_km * decay_rate_km_per_day;
  record.mean_motion_dot = std::clamp(dn_dt / 2.0, -0.9, 0.9);

  record.element_set_number = 999;
  record.rev_number = static_cast<int>(
      std::fmod((jd - satellite.launch_jd) * record.mean_motion_revday, 99999.0));
  if (record.rev_number < 0) record.rev_number = 0;
  return record;
}

}  // namespace cosmicdance::simulation
