#include "core/latitude.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"
#include "orbit/frames.hpp"
#include "sgp4/sgp4.hpp"
#include "stats/descriptive.hpp"

namespace cosmicdance::core {

namespace {

/// The record of `history` whose epoch is `epoch_jd`; a satellite's epochs
/// are unique (tle::kDuplicateEpochDays).
tle::Tle record_at(const tle::HistoryView& history, double epoch_jd) {
  const std::span<const double> epochs = history.epoch_jd();
  const auto it = std::lower_bound(epochs.begin(), epochs.end(), epoch_jd);
  if (it == epochs.end() || *it != epoch_jd) {
    throw ValidationError("track sample has no catalog record at its epoch");
  }
  return history[static_cast<std::size_t>(it - epochs.begin())];
}

}  // namespace

double sample_latitude_deg(const tle::Tle& tle) {
  const sgp4::Sgp4Propagator propagator(tle);
  const orbit::StateVector sv = propagator.propagate_minutes(0.0);
  const orbit::Vec3 ecef = orbit::teme_to_ecef(sv.position_km, tle.epoch_jd);
  const orbit::Geodetic geo = orbit::ecef_to_geodetic(ecef);
  return std::fabs(units::rad2deg(geo.latitude_rad));
}

std::vector<LatitudeBandStats> latitude_band_drag(
    std::span<const SatelliteTrack> tracks, const tle::TleCatalog& catalog,
    double jd_lo, double jd_hi, int bands) {
  if (bands < 1) throw ValidationError("latitude bands must be >= 1");
  const double width = 90.0 / bands;
  std::vector<std::vector<double>> bstars(static_cast<std::size_t>(bands));
  std::size_t total = 0;

  for (const SatelliteTrack& track : tracks) {
    const auto history = catalog.history(track.catalog_number());
    for (const TrajectorySample& sample : track.between(jd_lo, jd_hi)) {
      const tle::Tle record = record_at(history, sample.epoch_jd);
      double latitude = 0.0;
      try {
        latitude = sample_latitude_deg(record);
      } catch (const Error&) {
        continue;  // gross tracking error / unpropagatable record
      }
      auto band = static_cast<std::size_t>(latitude / width);
      if (band >= bstars.size()) band = bstars.size() - 1;
      bstars[band].push_back(sample.bstar);
      ++total;
    }
  }

  std::vector<LatitudeBandStats> out;
  out.reserve(static_cast<std::size_t>(bands));
  for (int b = 0; b < bands; ++b) {
    LatitudeBandStats stats;
    stats.lat_lo_deg = b * width;
    stats.lat_hi_deg = (b + 1) * width;
    const auto& samples = bstars[static_cast<std::size_t>(b)];
    stats.samples = samples.size();
    stats.dwell_fraction =
        total == 0 ? 0.0
                   : static_cast<double>(samples.size()) / static_cast<double>(total);
    if (!samples.empty()) {
      stats.median_bstar = stats::median(samples);
      stats.p95_bstar = stats::percentile(samples, 95.0);
    }
    out.push_back(stats);
  }
  return out;
}

}  // namespace cosmicdance::core
