// Orbital-lifetime estimation (the in-orbit-lifetime literature the paper
// builds on): integrate the circular-orbit drag decay until reentry.
#pragma once

#include "spaceweather/dst_index.hpp"

namespace cosmicdance::atmosphere {

/// The decay integration stops at this altitude.
inline constexpr double kLifetimeReentryAltitudeKm = 120.0;

struct LifetimeConfig {
  double max_days = 200.0 * 365.25;    ///< cap for effectively-stable orbits
  double step_hours = 6.0;             ///< integration step
  /// Optional storm driver: when set, density uses the Dst-coupled model
  /// along the timeline starting at `start_jd` (quiet beyond its coverage).
  const spaceweather::DstIndex* dst = nullptr;
  double start_jd = 0.0;
};

/// Days until a circular orbit at `altitude_km` with ballistic coefficient
/// `ballistic_m2_kg` (Cd*A/m) decays to the reentry altitude; returns
/// `config.max_days` when the orbit outlives the cap.  Throws
/// ValidationError for non-positive inputs.
[[nodiscard]] double decay_lifetime_days(double altitude_km, double ballistic_m2_kg,
                                         const LifetimeConfig& config = {});

}  // namespace cosmicdance::atmosphere
