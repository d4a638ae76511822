#include "core/kessler.hpp"

#include <cmath>

#include "common/units.hpp"
#include "orbit/constants.hpp"

namespace cosmicdance::core {

double shell_spatial_density(double shell_altitude_km, const KesslerConfig& config) {
  const double radius = shell_altitude_km + orbit::wgs72().radius_earth_km;
  const double shell_volume = 4.0 * units::kPi * radius * radius *
                              (2.0 * config.shells.half_width_km);
  return kSatellitesPerShell / shell_volume;
}

double collision_rate_per_dwell_year(double shell_altitude_km,
                                     const KesslerConfig& config) {
  const double n = shell_spatial_density(shell_altitude_km, config);  // 1/km^3
  const double rate_per_second =
      n * config.cross_section_km2 * kRelativeSpeedKmS;
  return rate_per_second * units::kSecondsPerDay * 365.25;
}

ConjunctionExposure conjunction_exposure(std::span<const SatelliteTrack> tracks,
                                         double jd_lo, double jd_hi,
                                         const KesslerConfig& config) {
  ConjunctionExposure exposure;
  // Clip each track to the window, then reuse the dwell estimator.
  std::vector<SatelliteTrack> clipped;
  for (const SatelliteTrack& track : tracks) {
    const auto window = track.between(jd_lo, jd_hi);
    if (window.size() < 2) continue;
    clipped.emplace_back(
        track.catalog_number(),
        std::vector<TrajectorySample>(window.begin(), window.end()));
  }
  exposure.dwell_days = foreign_shell_dwell_days(clipped, config.shells);

  // Use the mid-shell rate as representative (shells are a few km apart;
  // the density varies by < 1% across them).
  if (!config.shells.shell_altitudes_km.empty()) {
    const double mid = config.shells.shell_altitudes_km
                           [config.shells.shell_altitudes_km.size() / 2];
    exposure.expected_collisions = collision_rate_per_dwell_year(mid, config) *
                                   exposure.dwell_days / 365.25;
  }
  return exposure;
}

}  // namespace cosmicdance::core
