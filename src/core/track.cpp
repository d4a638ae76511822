#include "core/track.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "exec/parallel_for.hpp"
#include "obs/obs.hpp"
#include "orbit/elements.hpp"
#include "stats/descriptive.hpp"

namespace cosmicdance::core {

std::vector<TrajectorySample> samples_of(const tle::HistoryView& history) {
  const std::span<const double> epochs = history.epoch_jd();
  const std::span<const double> mean_motion = history.mean_motion_revday();
  const std::span<const double> bstar = history.bstar();
  std::vector<TrajectorySample> samples;
  samples.reserve(history.size());
  for (std::size_t i = 0; i < history.size(); ++i) {
    samples.push_back({epochs[i],
                       orbit::altitude_km_from_mean_motion(mean_motion[i]),
                       bstar[i]});
  }
  return samples;
}

SatelliteTrack::SatelliteTrack(int catalog_number,
                               std::vector<TrajectorySample> samples)
    : catalog_(catalog_number), samples_(std::move(samples)) {
  const auto by_epoch = [](const TrajectorySample& a, const TrajectorySample& b) {
    return a.epoch_jd < b.epoch_jd;
  };
  if (!std::is_sorted(samples_.begin(), samples_.end(), by_epoch)) {
    std::sort(samples_.begin(), samples_.end(), by_epoch);
  }
  if (samples_.empty()) return;
  std::vector<double> altitudes;
  altitudes.reserve(samples_.size());
  for (const TrajectorySample& s : samples_) altitudes.push_back(s.altitude_km);
  median_altitude_km_ = stats::median(altitudes);
}

double SatelliteTrack::median_altitude_km() const {
  if (samples_.empty()) throw ValidationError("median altitude of empty track");
  return median_altitude_km_;
}

const TrajectorySample* SatelliteTrack::at_or_before(double jd) const noexcept {
  const auto it = std::upper_bound(
      samples_.begin(), samples_.end(), jd,
      [](double value, const TrajectorySample& s) { return value < s.epoch_jd; });
  if (it == samples_.begin()) return nullptr;
  return &*(it - 1);
}

std::span<const TrajectorySample> SatelliteTrack::between(double jd_lo,
                                                          double jd_hi) const noexcept {
  const auto lo = std::lower_bound(
      samples_.begin(), samples_.end(), jd_lo,
      [](const TrajectorySample& s, double value) { return s.epoch_jd < value; });
  const auto hi = std::lower_bound(
      lo, samples_.end(), jd_hi,
      [](const TrajectorySample& s, double value) { return s.epoch_jd < value; });
  if (lo == hi) return {};
  return {&*lo, static_cast<std::size_t>(hi - lo)};
}

std::vector<SatelliteTrack> tracks_from_catalog(const tle::TleCatalog& catalog,
                                                int num_threads,
                                                obs::Metrics* metrics) {
  const std::vector<int> ids = catalog.satellites();
  auto tracks = exec::ordered_map<SatelliteTrack>(
      ids.size(), num_threads,
      [&](std::size_t i) {
        return SatelliteTrack(ids[i], samples_of(catalog.history(ids[i])));
      },
      metrics);
  if (metrics != nullptr) {
    std::uint64_t samples = 0;
    for (const SatelliteTrack& track : tracks) samples += track.size();
    metrics->counter("track.built").add(tracks.size());
    metrics->counter("track.samples").add(samples);
  }
  return tracks;
}

}  // namespace cosmicdance::core
