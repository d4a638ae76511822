// Per-satellite trajectory tracks derived from TLE histories.
//
// A track is the pipeline's working representation of one satellite: each
// TLE reduced to the paper's two derived observables — altitude (from mean
// motion) and drag (the B* term) — at its epoch.  The orbital elements stay
// in the catalog; a sample's record is the one with its epoch.
#pragma once

#include <span>
#include <vector>

#include "tle/catalog.hpp"

namespace cosmicdance::obs {
class Metrics;
}  // namespace cosmicdance::obs

namespace cosmicdance::core {

/// One TLE reduced to the quantities the analyses consume.
struct TrajectorySample {
  double epoch_jd = 0.0;
  double altitude_km = 0.0;  ///< derived from mean motion
  double bstar = 0.0;        ///< the paper's "atmospheric drag" observable
};
static_assert(sizeof(TrajectorySample) == 24);

/// The samples of a satellite's TLE history, in history order: its epoch,
/// mean-motion and B* columns, without building records.
[[nodiscard]] std::vector<TrajectorySample> samples_of(
    const tle::HistoryView& history);

/// Epoch-sorted trajectory of one satellite, immutable once built.
class SatelliteTrack {
 public:
  SatelliteTrack() = default;
  /// Orders the samples by epoch and takes their median altitude once.
  SatelliteTrack(int catalog_number, std::vector<TrajectorySample> samples);

  [[nodiscard]] int catalog_number() const noexcept { return catalog_; }
  [[nodiscard]] const std::vector<TrajectorySample>& samples() const noexcept {
    return samples_;
  }
  [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return samples_.size(); }

  /// Long-term median altitude over the whole track.  Throws when empty.
  [[nodiscard]] double median_altitude_km() const;

  /// Last sample at or before `jd`, or nullptr.
  [[nodiscard]] const TrajectorySample* at_or_before(double jd) const noexcept;

  /// Samples with epoch in [jd_lo, jd_hi).
  [[nodiscard]] std::span<const TrajectorySample> between(double jd_lo,
                                                          double jd_hi) const noexcept;

 private:
  int catalog_ = 0;
  std::vector<TrajectorySample> samples_;
  double median_altitude_km_ = 0.0;
};

/// Build one uncleaned track per satellite from a catalog, in catalog-number
/// order.  num_threads: 0 = all hardware threads, 1 = serial, n = n workers;
/// the output is identical for every value (exec::parallel_for contract).
/// `metrics` (optional) records track.built / track.samples counters.
[[nodiscard]] std::vector<SatelliteTrack> tracks_from_catalog(
    const tle::TleCatalog& catalog, int num_threads = 1,
    obs::Metrics* metrics = nullptr);

}  // namespace cosmicdance::core
