// Conjunction-rate estimation (paper §6, Kessler-syndrome future work).
//
// A kinetic-theory estimate of collision rates between a shell's resident
// population and satellites trespassing through it: residents form a thin
// spherical shell of spatial density n = N / (4*pi*a^2*dh); a trespasser
// sweeping through with relative speed v_rel and combined cross-section
// sigma accumulates collision probability  n * sigma * v_rel  per unit
// time.  Deliberately simple (no inclination-dependent flux weighting) but
// dimensionally honest — the point is the *ratio* between storm-time and
// quiet-time exposure.
#pragma once

#include <span>

#include "core/shells.hpp"
#include "core/track.hpp"

namespace cosmicdance::core {

/// Residents per shell at full constellation scale.
inline constexpr double kSatellitesPerShell = 1600.0;
/// Mean relative speed between crossing orbits at LEO (km/s): two circular
/// orbits with different planes meet at up to ~2*v_orb; ~10 km/s typical.
inline constexpr double kRelativeSpeedKmS = 10.0;

struct KesslerConfig {
  ShellConfig shells;
  /// Combined collision cross-section (km^2): two ~4 m bodies plus margin.
  double cross_section_km2 = 1.0e-4;
};

/// Spatial density (satellites / km^3) of a populated shell.
[[nodiscard]] double shell_spatial_density(double shell_altitude_km,
                                           const KesslerConfig& config);

/// Expected collisions per year of *dwell time inside foreign shells* for
/// one trespassing satellite.
[[nodiscard]] double collision_rate_per_dwell_year(double shell_altitude_km,
                                                   const KesslerConfig& config);

/// Aggregate conjunction exposure of a track set over a time window:
/// expected collision count (tiny number — the interesting output is the
/// storm/quiet ratio) given the foreign-shell dwell in that window.
struct ConjunctionExposure {
  double dwell_days = 0.0;           ///< foreign-shell satellite-days
  double expected_collisions = 0.0;  ///< over that dwell
};

[[nodiscard]] ConjunctionExposure conjunction_exposure(
    std::span<const SatelliteTrack> tracks, double jd_lo, double jd_hi,
    const KesslerConfig& config = {});

}  // namespace cosmicdance::core
