// Satellite lifecycle model for the constellation simulator.
//
// Mirrors the Starlink concept of operations the paper describes: launch to
// a ~350 km staging orbit, a testing dwell, orbit raising to the operational
// shell, ~5 years of station-kept service, then controlled de-orbit — with
// storm-induced deviations (temporary outages, permanent uncontrolled decay,
// staging-orbit loss) layered on top.
#pragma once

#include <string>

#include "timeutil/datetime.hpp"

namespace cosmicdance::simulation {

/// Cd*A/m (m^2/kg) while station-kept (knife-edge attitude).
inline constexpr double kBallisticOperational = 0.004;
/// Cd*A/m in the staging/raising configuration.
inline constexpr double kBallisticStaging = 0.02;

/// Physical and orbital configuration of one satellite.
struct SatelliteConfig {
  /// Cd*A/m while uncontrolled/tumbling (panel broadside dominates, plus
  /// storm-time model underestimate folded in; see DESIGN.md).
  double ballistic_uncontrolled = 0.3;

  double staging_altitude_km = 350.0;
  double target_altitude_km = 550.0;
  double inclination_deg = 53.05;
  double eccentricity = 8.0e-4;
};

/// Lifecycle mode.  The distinction between kOutage (recovers) and
/// kDecaying (never recovers) is what produces the paper's short- vs
/// long-term orbital decay after storms.
enum class SatelliteMode {
  kStaging,      ///< parked at the staging orbit for checkout
  kRaising,      ///< electric-propulsion raise toward the target shell
  kOperational,  ///< station-kept at the target shell
  kOutage,       ///< temporarily uncontrolled (storm upset), will recover
  kDecaying,     ///< permanently uncontrolled, decaying
  kDeorbiting,   ///< end-of-life controlled descent
  kReentered,    ///< below the reentry altitude; no longer tracked
};

[[nodiscard]] std::string to_string(SatelliteMode mode);

/// Full dynamic state of one simulated satellite.
struct SatelliteState {
  int catalog_number = 0;
  std::string international_designator;
  SatelliteConfig config;

  SatelliteMode mode = SatelliteMode::kStaging;
  double altitude_km = 350.0;  ///< mean (SMA-derived) altitude
  double raan_deg = 0.0;
  double arg_perigee_deg = 90.0;
  double mean_anomaly_deg = 0.0;

  double launch_jd = 0.0;
  double staging_until_jd = 0.0;   ///< checkout dwell end
  double outage_until_jd = 0.0;    ///< recovery time when in kOutage
  double deorbit_after_jd = 0.0;   ///< end of service life

  /// Effective ballistic coefficient for the current mode.
  [[nodiscard]] double ballistic_m2_kg() const noexcept;

  /// Tracked means "has not reentered".
  [[nodiscard]] bool tracked() const noexcept {
    return mode != SatelliteMode::kReentered;
  }
};

/// J2 secular drift (deg/day) of a circular orbit at a fixed inclination.
/// The inclination terms are computed once, so stepping a satellite costs
/// one J2 prefactor per step for both rates.
class J2Drift {
 public:
  explicit J2Drift(double inclination_deg) noexcept;

  struct Rates {
    double raan_deg_per_day = 0.0;
    double argp_deg_per_day = 0.0;
  };
  [[nodiscard]] Rates at(double altitude_km) const noexcept;

 private:
  double raan_factor_;  ///< cos i
  double argp_factor_;  ///< 2 - 2.5 sin^2 i
};

}  // namespace cosmicdance::simulation
