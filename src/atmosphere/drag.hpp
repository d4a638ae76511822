// Drag kinematics: deceleration, decay rates and the B* bridge.
#pragma once

namespace cosmicdance::atmosphere {

/// Instantaneous drag deceleration (m/s^2) for speed v (m/s).
[[nodiscard]] double drag_acceleration_ms2(double density_kg_m3, double speed_ms,
                                           double ballistic_m2_kg) noexcept;

/// Orbit-averaged decay rate of a circular orbit's semi-major axis:
///   da/dt = -sqrt(mu*a) * rho * B
/// returned in km/day for an altitude in km (geodetic, WGS-72 radius).
[[nodiscard]] double circular_decay_rate_km_per_day(double altitude_km,
                                                    double density_kg_m3,
                                                    double ballistic_m2_kg);

/// Reference air density constant of the B* convention
/// (rho_0 = 0.157 kg / (m^2 * Earth radius)).
inline constexpr double kBstarReferenceDensity = 0.157;

/// B* drag term (1/Earth-radii) for a ballistic coefficient, scaled by the
/// local density relative to a reference density (B* is fitted, so storm
/// epochs carry larger effective values):
///   B* = 0.5 * rho_0 * B * density_ratio
[[nodiscard]] double bstar_from_ballistic(double ballistic_m2_kg,
                                          double density_ratio = 1.0) noexcept;

}  // namespace cosmicdance::atmosphere
