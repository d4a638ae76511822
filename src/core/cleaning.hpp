// The paper's data-cleaning rules (§3 "Cleaning the data", §A.2).
#pragma once

#include <vector>

#include "core/track.hpp"

namespace cosmicdance::obs {
class Metrics;
}  // namespace cosmicdance::obs

namespace cosmicdance::core {

/// TLEs with derived altitude outside (min, max] are tracking errors
/// (paper: > 650 km given Starlink's operational shells; Fig 10).
constexpr double kOutlierMinAltitudeKm = 100.0;
constexpr double kOutlierMaxAltitudeKm = 650.0;

/// Orbit-raising filter: drop each satellite's history before it first
/// comes within this margin of its operational shell altitude.
constexpr double kRaiseMarginKm = 5.0;
/// Percentile of a track's altitudes used as the operational-shell
/// estimate (robust against both the staging window and later decay).
constexpr double kShellPercentile = 90.0;

/// Pre-decay filter: a satellite whose altitude immediately before an
/// event differs from its long-term median by more than this is already
/// decaying and is excluded from event analyses (paper: 5 km,
/// "empirically set; configurable" — the default of
/// PipelineConfig::predecay_threshold_km).
constexpr double kPredecayThresholdKm = 5.0;
/// The pre-event sample must be at most this old to count as
/// "immediately before" the event.
constexpr double kPreEventMaxGapDays = 3.0;

/// Remove gross-tracking-error samples (returns the count removed).  The
/// paper's Fig 10(a)->(b) step.
std::size_t remove_outliers(std::vector<TrajectorySample>& samples);

/// Remove the initial orbit-raising window from epoch-sorted samples
/// (returns the count removed).  Tracks that never reach their shell (lost
/// in staging) are left intact — the pre-decay filter excludes them from
/// event analyses downstream.
std::size_t remove_orbit_raising(std::vector<TrajectorySample>& samples);

/// True when the satellite was already decaying at `event_jd`: either no
/// usable sample immediately before the event, or the pre-event altitude
/// deviates from the track's long-term median by more than
/// `predecay_threshold_km`.
[[nodiscard]] bool is_pre_decayed(
    const SatelliteTrack& track, double event_jd,
    double predecay_threshold_km = kPredecayThresholdKm);

/// Build one cleaned track per satellite of `catalog`, in catalog-number
/// order: each history's samples go through remove_outliers and
/// remove_orbit_raising, and tracks left empty are dropped.  Satellites are
/// built independently (one worker per satellite when num_threads != 1), so
/// the result is identical for every thread count.  `metrics` (optional)
/// records the track.* counters (satellites, raw samples) and the clean.*
/// counters (samples removed, tracks kept/dropped).
[[nodiscard]] std::vector<SatelliteTrack> clean_tracks(
    const tle::TleCatalog& catalog, int num_threads = 1,
    obs::Metrics* metrics = nullptr);

}  // namespace cosmicdance::core
