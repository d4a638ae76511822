#include "core/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <string>

#include "common/error.hpp"
#include "exec/parallel_for.hpp"
#include "obs/obs.hpp"
#include "orbit/elements.hpp"
#include "stats/descriptive.hpp"
#include "timeutil/hour_axis.hpp"

namespace cosmicdance::core {

std::vector<double> all_altitudes(std::span<const SatelliteTrack> tracks,
                                  int num_threads, obs::Metrics* metrics) {
  const obs::ScopedPhase phase(metrics, "analysis.all_altitudes");
  auto altitudes = exec::ordered_concat(exec::ordered_map<std::vector<double>>(
      tracks.size(), num_threads,
      [&](std::size_t t) {
        std::vector<double> track_altitudes;
        track_altitudes.reserve(tracks[t].size());
        for (const TrajectorySample& sample : tracks[t].samples()) {
          track_altitudes.push_back(sample.altitude_km);
        }
        return track_altitudes;
      },
      metrics));
  if (metrics != nullptr) {
    metrics->counter("analysis.altitude_samples").add(altitudes.size());
  }
  return altitudes;
}

Fig10Samples fig10_samples(const tle::TleCatalog& catalog,
                           std::span<const SatelliteTrack> tracks,
                           int num_threads, obs::Metrics* metrics) {
  const obs::ScopedPhase phase(metrics, "analysis.fig10_samples");
  // Each satellite's history, its cleaned track (none when cleaning removed
  // every row), and where its kept and its removed altitudes go.
  struct Satellite {
    tle::HistoryView history;
    std::span<const TrajectorySample> kept;
    std::size_t kept_at = 0;
    std::size_t removed_at = 0;
  };
  Fig10Samples samples;
  for (const SatelliteTrack& track : tracks) samples.cleaned += track.size();
  const std::vector<int> ids = catalog.satellites();
  std::vector<Satellite> satellites(ids.size());
  std::size_t t = 0;
  std::size_t kept_at = 0;
  std::size_t removed_at = samples.cleaned;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    Satellite& satellite = satellites[i];
    satellite.history = catalog.history(ids[i]);
    if (t < tracks.size() && tracks[t].catalog_number() == ids[i]) {
      satellite.kept = tracks[t++].samples();
    }
    if (satellite.kept.size() > satellite.history.size()) {
      throw ValidationError("fig10 samples: satellite " + std::to_string(ids[i]) +
                            " has more track samples than records");
    }
    satellite.kept_at = kept_at;
    satellite.removed_at = removed_at;
    kept_at += satellite.kept.size();
    removed_at += satellite.history.size() - satellite.kept.size();
  }
  if (t != tracks.size()) {
    throw ValidationError("fig10 samples: track of satellite " +
                          std::to_string(tracks[t].catalog_number()) +
                          " is out of catalog order or not in the catalog");
  }

  samples.altitudes.resize(removed_at);
  double* const out = samples.altitudes.data();
  exec::parallel_for(
      satellites.size(), num_threads,
      [&](std::size_t first, std::size_t last) {
        for (std::size_t i = first; i < last; ++i) {
          const Satellite& satellite = satellites[i];
          const std::span<const double> epochs = satellite.history.epoch_jd();
          const std::span<const double> mean_motion =
              satellite.history.mean_motion_revday();
          const std::size_t removed =
              satellite.history.size() - satellite.kept.size();
          // The track is a subsequence of the epoch-ordered history: walk
          // both, and a row whose epoch is the next kept sample's was kept.
          std::size_t j = 0;
          for (std::size_t k = 0; k < epochs.size(); ++k) {
            if (j < satellite.kept.size() &&
                satellite.kept[j].epoch_jd == epochs[k]) {
              out[satellite.kept_at + j] = satellite.kept[j].altitude_km;
              ++j;
            } else if (k - j < removed) {
              out[satellite.removed_at + (k - j)] =
                  orbit::altitude_km_from_mean_motion(mean_motion[k]);
            } else {
              break;  // more rows unmatched than removed: j falls short
            }
          }
          if (j != satellite.kept.size()) {
            throw ValidationError(
                "fig10 samples: the track of satellite " +
                std::to_string(satellite.history.catalog_number()) +
                " is not a subsequence of its history");
          }
        }
      },
      metrics);
  if (metrics != nullptr) {
    metrics->counter("analysis.altitude_samples").add(samples.altitudes.size());
  }
  return samples;
}

std::vector<SuperstormPanelRow> superstorm_panel(
    std::span<const SatelliteTrack> tracks, const spaceweather::DstIndex& dst,
    double start_jd, double end_jd, int num_threads, obs::Metrics* metrics) {
  const obs::ScopedPhase phase(metrics, "analysis.superstorm_panel");
  const double first_day = std::floor(start_jd - 0.5) + 0.5;
  std::size_t day_count = 0;
  for (double day = first_day; day < end_jd; day += 1.0) ++day_count;
  if (metrics != nullptr) {
    metrics->counter("analysis.panel_days").add(day_count);
  }
  return exec::ordered_map<SuperstormPanelRow>(day_count, num_threads, [&](
                                                   std::size_t d) {
    const double day = first_day + static_cast<double>(d);
    SuperstormPanelRow row;
    row.day_jd = day;

    // Most negative Dst of the day.
    double dst_min = 0.0;
    for (int h = 0; h < 24; ++h) {
      const timeutil::HourIndex hour =
          timeutil::hour_index_from_julian(day + h / 24.0);
      if (dst.covers(hour)) dst_min = std::min(dst_min, dst.at(hour));
    }
    row.dst_min_nt = dst_min;

    std::vector<double> bstars;
    std::set<int> seen;
    for (const SatelliteTrack& track : tracks) {
      const auto window = track.between(day, day + 1.0);
      for (const TrajectorySample& sample : window) bstars.push_back(sample.bstar);
      // "Tracked" uses a trailing 3-day window: a satellite does not vanish
      // from the catalog just because its refresh interval skipped a day
      // (intervals stretch to 154 h).
      if (!window.empty() || !track.between(day - 2.0, day).empty()) {
        seen.insert(track.catalog_number());
      }
    }
    row.tracked_satellites = static_cast<long>(seen.size());
    row.tle_count = static_cast<long>(bstars.size());
    if (!bstars.empty()) {
      row.bstar_mean = stats::mean(bstars);
      row.bstar_median = stats::median(bstars);
      row.bstar_p95 = stats::percentile(bstars, 95.0);
    }
    return row;
  }, metrics);
}

std::vector<TrackTimeline> track_timelines(std::span<const SatelliteTrack> tracks,
                                           std::span<const int> catalog_numbers) {
  std::vector<TrackTimeline> timelines;
  for (const int id : catalog_numbers) {
    const auto it =
        std::find_if(tracks.begin(), tracks.end(), [id](const SatelliteTrack& t) {
          return t.catalog_number() == id;
        });
    if (it == tracks.end()) continue;
    TrackTimeline timeline;
    timeline.catalog_number = id;
    for (const TrajectorySample& sample : it->samples()) {
      timeline.epoch_jd.push_back(sample.epoch_jd);
      timeline.altitude_km.push_back(sample.altitude_km);
      timeline.bstar.push_back(sample.bstar);
    }
    timelines.push_back(std::move(timeline));
  }
  return timelines;
}

}  // namespace cosmicdance::core
