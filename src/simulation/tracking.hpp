// Simulated ground tracking network: turns ground-truth satellite states
// into noisy TLE records at realistic refresh intervals.
//
// This is the observability boundary of the whole reproduction: the
// measurement pipeline (cd_core) consumes only what this emits, never the
// simulator's ground truth — exactly as CosmicDance consumes CSpOC TLEs.
#pragma once

#include "common/rng.hpp"
#include "simulation/satellite.hpp"
#include "tle/tle.hpp"

namespace cosmicdance::simulation {

/// Refresh intervals are log-normal: exp(N(mu, sigma)) hours, clipped to
/// [min, max].  mu = ln(9) and TrackingConfig's sigma give a ~9 h median /
/// ~12 h mean, matching the paper's "<1 to 154 hours; on average 12 hours".
inline constexpr double kRefreshLognormalMu = 2.2;  // ln(9)
inline constexpr double kRefreshMinHours = 0.5;
inline constexpr double kRefreshMaxHours = 154.0;

/// 1-sigma observation noise of the elements the paper does not measure.
inline constexpr double kInclinationNoiseDeg = 0.002;
inline constexpr double kAngleNoiseDeg = 0.01;  // RAAN/argp/mean anomaly
inline constexpr double kEccentricityNoise = 5.0e-5;

/// A gross tracking error's derived altitude is log-uniform over this band
/// (Fig 10's long tail: derived altitudes up to ~40,000 km).
inline constexpr double kGrossErrorMinAltitudeKm = 700.0;
inline constexpr double kGrossErrorMaxAltitudeKm = 40000.0;

struct TrackingConfig {
  /// Spread of the log-normal refresh interval (see kRefreshLognormalMu).
  double refresh_lognormal_sigma = 0.8;

  /// 1-sigma observation noise.
  double altitude_noise_km = 0.04;
  double bstar_lognormal_sigma = 0.18;  // multiplicative fit noise

  /// Probability that a record is a gross tracking error.
  double gross_error_probability = 3.0e-4;
};

/// Per-satellite tracking state plus the record factory.
class TrackingSimulator {
 public:
  TrackingSimulator(TrackingConfig config, std::uint64_t seed);

  /// Next observation epoch given the previous one.
  [[nodiscard]] double next_observation_jd(double previous_jd);

  /// Produce one TLE record for a satellite at `jd`.  `density_ratio` is the
  /// current storm density enhancement (B* is a fitted drag proxy, so storm
  /// epochs carry proportionally larger values), `decay_rate_km_per_day` the
  /// current decay rate (used for the ndot field).
  [[nodiscard]] tle::Tle observe(const SatelliteState& satellite, double jd,
                                 double density_ratio,
                                 double decay_rate_km_per_day);

 private:
  TrackingConfig config_;
  Rng rng_;
};

}  // namespace cosmicdance::simulation
