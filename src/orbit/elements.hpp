// The mean-motion <-> altitude relations the paper relies on ("we derive
// altitude from the mean motion orbital element"), all under WGS-72, the
// model TLE mean elements are fitted in.
#pragma once

namespace cosmicdance::orbit {

/// Two-body mean motion (rev/day) of a semi-major axis.  Throws
/// ValidationError for non-positive axis.
[[nodiscard]] double mean_motion_revday_from_sma(double sma_km);

/// Inverse: semi-major axis (km) from mean motion in rev/day.  Throws
/// ValidationError for non-positive mean motion.
[[nodiscard]] double sma_from_mean_motion_revday(double revs_per_day);

/// The paper's altitude proxy: geocentric semi-major axis minus Earth's
/// equatorial radius, derived purely from mean motion.
[[nodiscard]] double altitude_km_from_mean_motion(double revs_per_day);

/// Inverse of altitude_km_from_mean_motion.
[[nodiscard]] double mean_motion_from_altitude_km(double altitude_km);

/// Circular orbital speed (km/s) at a geocentric radius.
[[nodiscard]] double circular_speed_kms(double radius_km);

}  // namespace cosmicdance::orbit
