// Figure-level analyses: each function assembles exactly the data series
// one of the paper's evaluation figures plots (see DESIGN.md's index).
#pragma once

#include <span>
#include <vector>

#include "core/correlator.hpp"
#include "core/track.hpp"
#include "spaceweather/dst_index.hpp"
#include "stats/ecdf.hpp"

namespace cosmicdance::obs {
class Metrics;
}  // namespace cosmicdance::obs

namespace cosmicdance::core {

/// The altitude of every sample in a track set, track-major, the same at
/// any num_threads (0 = all hardware threads, 1 = serial).  `metrics`
/// (optional) records analysis.altitude_samples and phase timing.
[[nodiscard]] std::vector<double> all_altitudes(std::span<const SatelliteTrack> tracks,
                                                int num_threads = 1,
                                                obs::Metrics* metrics = nullptr);

/// Fig 10's two altitude samples in one buffer.  `altitudes` holds first
/// all_altitudes(tracks) — fig10(b), the cleaned tracks — and then the
/// altitude of every catalog record cleaning removed, satellite-major in
/// history order; so the whole buffer is, as a multiset, the altitude of
/// every TLE in the catalog — fig10(a).  An ECDF by selection reads only
/// the multiset, so neither figure needs a buffer of its own.
struct Fig10Samples {
  std::vector<double> altitudes;
  std::size_t cleaned = 0;  ///< length of the fig10(b) prefix

  [[nodiscard]] std::span<const double> raw() const noexcept { return altitudes; }
  [[nodiscard]] std::span<const double> clean() const noexcept {
    return std::span<const double>(altitudes).first(cleaned);
  }
};

/// Fig10Samples of `catalog` and its cleaned `tracks` (clean_tracks'
/// output: catalog-number order, each track a subsequence of its strictly
/// epoch-ordered history).  A kept row is found by its epoch and its
/// altitude copied from the track; only the removed rows' altitudes are
/// computed again.  One worker per satellite writes its two disjoint
/// slices, so the buffer is the same at any num_threads.  Throws
/// ValidationError when a track is not such a subsequence or names no
/// satellite of the catalog.  `metrics` (optional) records the phase
/// analysis.fig10_samples and analysis.altitude_samples (the buffer's size).
[[nodiscard]] Fig10Samples fig10_samples(const tle::TleCatalog& catalog,
                                         std::span<const SatelliteTrack> tracks,
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
