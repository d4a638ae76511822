// Keplerian elements and the mean-motion <-> altitude relations the paper
// relies on ("we derive altitude from the mean motion orbital element").
#pragma once

#include "orbit/constants.hpp"

namespace cosmicdance::orbit {

/// Classical orbital elements.  Angles are radians; semi-major axis in km.
struct KeplerianElements {
  double semi_major_axis_km = 6928.0;
  double eccentricity = 0.0;      ///< [0, 1)
  double inclination_rad = 0.0;   ///< [0, pi]
  double raan_rad = 0.0;          ///< [0, 2*pi)
  double arg_perigee_rad = 0.0;   ///< [0, 2*pi)
  double mean_anomaly_rad = 0.0;  ///< [0, 2*pi)

  /// Throws ValidationError for non-physical values.
  void validate() const;
};

/// Two-body mean motion (rev/day) of a semi-major axis.  Throws
/// ValidationError for non-positive axis.
[[nodiscard]] double mean_motion_revday_from_sma(double sma_km,
                                                 const GravityModel& g = wgs72());

/// Inverse: semi-major axis (km) from mean motion in rev/day.  Throws
/// ValidationError for non-positive mean motion.
[[nodiscard]] double sma_from_mean_motion_revday(double revs_per_day,
                                                 const GravityModel& g = wgs72());

/// The paper's altitude proxy: geocentric semi-major axis minus Earth's
/// equatorial radius, derived purely from mean motion.
[[nodiscard]] double altitude_km_from_mean_motion(double revs_per_day,
                                                  const GravityModel& g = wgs72());

/// Inverse of altitude_km_from_mean_motion.
[[nodiscard]] double mean_motion_from_altitude_km(double altitude_km,
                                                  const GravityModel& g = wgs72());

/// Circular orbital speed (km/s) at a geocentric radius.
[[nodiscard]] double circular_speed_kms(double radius_km,
                                        const GravityModel& g = wgs72());

}  // namespace cosmicdance::orbit
