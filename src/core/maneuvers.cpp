#include "core/maneuvers.hpp"

#include <algorithm>
#include <cmath>

namespace cosmicdance::core {

std::vector<ManeuverEvent> detect_maneuvers(const SatelliteTrack& track) {
  std::vector<ManeuverEvent> events;
  const auto& samples = track.samples();
  for (std::size_t i = 1; i < samples.size(); ++i) {
    const double gap_days = samples[i].epoch_jd - samples[i - 1].epoch_jd;
    if (gap_days <= 0.0 || gap_days > kManeuverMaxGapDays) continue;
    const double delta = samples[i].altitude_km - samples[i - 1].altitude_km;
    const double rate = delta / gap_days;
    if (std::fabs(delta) >= kManeuverMinStepKm &&
        std::fabs(rate) >= kManeuverMinRateKmPerDay) {
      events.push_back({track.catalog_number(), samples[i].epoch_jd, delta, rate});
    }
  }
  return events;
}

std::vector<ManeuverEvent> detect_maneuvers(std::span<const SatelliteTrack> tracks) {
  std::vector<ManeuverEvent> events;
  for (const SatelliteTrack& track : tracks) {
    const auto track_events = detect_maneuvers(track);
    events.insert(events.end(), track_events.begin(), track_events.end());
  }
  std::sort(events.begin(), events.end(),
            [](const ManeuverEvent& a, const ManeuverEvent& b) {
              return a.jd < b.jd;
            });
  return events;
}

ManeuverContamination maneuver_contamination(
    std::span<const SatelliteTrack> tracks, std::span<const double> event_jds,
    double window_days) {
  ManeuverContamination result;
  for (const SatelliteTrack& track : tracks) {
    const auto maneuvers = detect_maneuvers(track);
    for (const double event_jd : event_jds) {
      ++result.candidates;
      for (const ManeuverEvent& maneuver : maneuvers) {
        if (maneuver.jd >= event_jd && maneuver.jd < event_jd + window_days) {
          ++result.near_maneuver;
          break;
        }
      }
    }
  }
  return result;
}

}  // namespace cosmicdance::core
