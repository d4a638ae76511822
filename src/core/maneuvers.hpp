// Manoeuvre detection (paper "Limitations": trajectories also change to
// avoid collisions, a confounder for happens-closely-after analyses).
//
// A manoeuvre shows up in TLE histories as a discrete altitude step between
// consecutive records that is too fast to be drag (which moves metres per
// day at the operational shell): classify such steps and let analyses
// report how many of their candidate events look propulsive rather than
// drag-driven.
#pragma once

#include <span>
#include <vector>

#include "core/track.hpp"

namespace cosmicdance::core {

/// Minimum altitude step (km) between consecutive TLEs to call discrete.
inline constexpr double kManeuverMinStepKm = 0.4;
/// Steps must exceed this rate (km/day) — drag at the shell is ~100x
/// slower, so rate separates impulses from decay even across long gaps.
inline constexpr double kManeuverMinRateKmPerDay = 1.0;
/// Consecutive records further apart than this cannot attribute a step.
inline constexpr double kManeuverMaxGapDays = 3.0;

struct ManeuverEvent {
  int catalog_number = 0;
  double jd = 0.0;          ///< epoch of the record after the step
  double delta_km = 0.0;    ///< signed altitude change (+ = boost)
  double rate_km_per_day = 0.0;
};

/// All detected manoeuvres in a track, in time order.
[[nodiscard]] std::vector<ManeuverEvent> detect_maneuvers(
    const SatelliteTrack& track);

/// Pooled over a track set, time-sorted.
[[nodiscard]] std::vector<ManeuverEvent> detect_maneuvers(
    std::span<const SatelliteTrack> tracks);

/// Fraction of events within [jd, jd + window_days) of any detected
/// manoeuvre of the same satellite — a contamination estimate for a set of
/// happens-closely-after candidate (satellite, event) pairs.
struct ManeuverContamination {
  std::size_t candidates = 0;
  std::size_t near_maneuver = 0;
  [[nodiscard]] double fraction() const noexcept {
    return candidates == 0
               ? 0.0
               : static_cast<double>(near_maneuver) / static_cast<double>(candidates);
  }
};

[[nodiscard]] ManeuverContamination maneuver_contamination(
    std::span<const SatelliteTrack> tracks, std::span<const double> event_jds,
    double window_days);

}  // namespace cosmicdance::core
