#include "core/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "exec/parallel_for.hpp"
#include "obs/obs.hpp"
#include "orbit/elements.hpp"
#include "stats/descriptive.hpp"
#include "timeutil/hour_axis.hpp"

namespace cosmicdance::core {

namespace {

/// Concatenates `altitudes_of(i)` for i in [0, count), one item per worker.
template <typename AltitudesOf>
std::vector<double> concat_altitudes(std::size_t count, int num_threads,
                                     obs::Metrics* metrics,
                                     AltitudesOf altitudes_of) {
  const obs::ScopedPhase phase(metrics, "analysis.all_altitudes");
  auto altitudes = exec::ordered_concat(exec::ordered_map<std::vector<double>>(
      count, num_threads, altitudes_of, metrics));
  if (metrics != nullptr) {
    metrics->counter("analysis.altitude_samples").add(altitudes.size());
  }
  return altitudes;
}

}  // namespace

std::vector<double> all_altitudes(std::span<const SatelliteTrack> tracks,
                                  int num_threads, obs::Metrics* metrics) {
  return concat_altitudes(tracks.size(), num_threads, metrics, [&](std::size_t t) {
    std::vector<double> altitudes;
    altitudes.reserve(tracks[t].size());
    for (const TrajectorySample& sample : tracks[t].samples()) {
      altitudes.push_back(sample.altitude_km);
    }
    return altitudes;
  });
}

std::vector<double> all_altitudes(const tle::TleCatalog& catalog,
                                  int num_threads, obs::Metrics* metrics) {
  const std::vector<int> ids = catalog.satellites();
  return concat_altitudes(ids.size(), num_threads, metrics, [&](std::size_t i) {
    const std::span<const double> mean_motion =
        catalog.history(ids[i]).mean_motion_revday();
    std::vector<double> altitudes;
    altitudes.reserve(mean_motion.size());
    for (const double revs_per_day : mean_motion) {
      altitudes.push_back(orbit::altitude_km_from_mean_motion(revs_per_day));
    }
    return altitudes;
  });
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
