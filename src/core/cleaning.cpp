#include "core/cleaning.hpp"

#include <algorithm>
#include <cmath>

#include "exec/parallel_for.hpp"
#include "obs/obs.hpp"
#include "stats/descriptive.hpp"

namespace cosmicdance::core {

std::size_t remove_outliers(std::vector<TrajectorySample>& samples) {
  return std::erase_if(samples, [](const TrajectorySample& sample) {
    return !(sample.altitude_km > kOutlierMinAltitudeKm &&
             sample.altitude_km <= kOutlierMaxAltitudeKm);
  });
}

std::size_t remove_orbit_raising(std::vector<TrajectorySample>& samples) {
  if (samples.empty()) return 0;
  std::vector<double> altitudes;
  altitudes.reserve(samples.size());
  for (const TrajectorySample& s : samples) altitudes.push_back(s.altitude_km);
  const double shell = stats::percentile(altitudes, kShellPercentile);

  const auto first_at_shell = std::find_if(
      samples.begin(), samples.end(), [&](const TrajectorySample& s) {
        return s.altitude_km >= shell - kRaiseMarginKm;
      });
  if (first_at_shell == samples.end()) return 0;
  const auto removed = static_cast<std::size_t>(first_at_shell - samples.begin());
  samples.erase(samples.begin(), first_at_shell);
  return removed;
}

bool is_pre_decayed(const SatelliteTrack& track, double event_jd,
                    double predecay_threshold_km) {
  if (track.empty()) return true;
  const TrajectorySample* pre = track.at_or_before(event_jd);
  if (pre == nullptr) return true;
  if (event_jd - pre->epoch_jd > kPreEventMaxGapDays) return true;
  return std::fabs(pre->altitude_km - track.median_altitude_km()) >
         predecay_threshold_km;
}

std::vector<SatelliteTrack> clean_tracks(const tle::TleCatalog& catalog,
                                         int num_threads, obs::Metrics* metrics) {
  // Relaxed atomic adds commute, so the totals are bit-identical at every
  // thread count even though workers interleave (DESIGN.md §11).
  obs::Counter* raw_samples = obs::counter_or_null(metrics, "track.samples");
  obs::Counter* outliers =
      obs::counter_or_null(metrics, "clean.outlier_samples_removed");
  obs::Counter* raising =
      obs::counter_or_null(metrics, "clean.raising_samples_removed");
  const std::vector<int> ids = catalog.satellites();
  std::vector<SatelliteTrack> tracks = exec::ordered_map<SatelliteTrack>(
      ids.size(), num_threads,
      [&](std::size_t i) {
        std::vector<TrajectorySample> samples = samples_of(catalog.history(ids[i]));
        obs::bump(raw_samples, samples.size());
        obs::bump(outliers, remove_outliers(samples));
        obs::bump(raising, remove_orbit_raising(samples));
        return SatelliteTrack(ids[i], std::move(samples));
      },
      metrics);
  const std::size_t dropped = std::erase_if(
      tracks, [](const SatelliteTrack& track) { return track.empty(); });
  if (metrics != nullptr) {
    metrics->counter("track.built").add(ids.size());
    metrics->counter("clean.tracks_kept").add(tracks.size());
    metrics->counter("clean.tracks_dropped").add(dropped);
  }
  return tracks;
}

}  // namespace cosmicdance::core
