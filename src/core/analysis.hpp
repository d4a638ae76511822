// Figure-level analyses: each function assembles exactly the data series
// one of the paper's evaluation figures plots (see DESIGN.md's index).
#pragma once

#include <vector>

#include "core/correlator.hpp"
#include "core/track.hpp"
#include "spaceweather/dst_index.hpp"
#include "stats/ecdf.hpp"

namespace cosmicdance::obs {
class Metrics;
}  // namespace cosmicdance::obs

namespace cosmicdance::core {

/// Fig 10(b): the altitude of every sample in a track set (the cleaned
/// tracks).  Output order is track-major regardless of num_threads (0 = all
/// hardware threads, 1 = serial).  `metrics` (optional) records
/// analysis.altitude_samples and phase timing.
[[nodiscard]] std::vector<double> all_altitudes(std::span<const SatelliteTrack> tracks,
                                                int num_threads = 1,
                                                obs::Metrics* metrics = nullptr);

/// Fig 10(a): the altitude of every TLE in the catalog, satellite-major in
/// history order — the same values as the uncleaned tracks give.
[[nodiscard]] std::vector<double> all_altitudes(const tle::TleCatalog& catalog,
                                                int num_threads = 1,
                                                obs::Metrics* metrics = nullptr);

/// Fig 7: one row per UT day across an analysis window.
struct SuperstormPanelRow {
  double day_jd = 0.0;
  double dst_min_nt = 0.0;     ///< most negative hourly Dst of the day
  double bstar_mean = 0.0;
  double bstar_median = 0.0;
  double bstar_p95 = 0.0;
  long tracked_satellites = 0;  ///< distinct satellites with a TLE that day
  long tle_count = 0;
};

/// Build the Fig 7 panel between two Julian dates (inclusive start day,
/// exclusive end).  Days without TLEs carry zero drag statistics.  Rows are
/// computed one day per worker and returned in day order.
[[nodiscard]] std::vector<SuperstormPanelRow> superstorm_panel(
    std::span<const SatelliteTrack> tracks, const spaceweather::DstIndex& dst,
    double start_jd, double end_jd, int num_threads = 1,
    obs::Metrics* metrics = nullptr);

/// Fig 3: the merged per-satellite time series (Dst is plotted separately).
struct TrackTimeline {
  int catalog_number = 0;
  std::vector<double> epoch_jd;
  std::vector<double> altitude_km;
  std::vector<double> bstar;
};

/// Extract plot-ready timelines for specific satellites.
[[nodiscard]] std::vector<TrackTimeline> track_timelines(
    std::span<const SatelliteTrack> tracks, std::span<const int> catalog_numbers);

}  // namespace cosmicdance::core
