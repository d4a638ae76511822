// Storm event segmentation over a Dst series (the paper's Figs 1-2, and the
// event anchors for every "happens closely after" analysis).
#pragma once

#include <map>
#include <vector>

#include "spaceweather/dst_index.hpp"
#include "spaceweather/gscale.hpp"

namespace cosmicdance::spaceweather {

/// One geomagnetic storm: a maximal contiguous run of hours with Dst at or
/// below the detection threshold.
struct StormEvent {
  timeutil::HourIndex start_hour = 0;  ///< first hour at/below threshold
  timeutil::HourIndex end_hour = 0;    ///< one past the last such hour
  double peak_dst_nt = 0.0;            ///< most negative hourly value
  timeutil::HourIndex peak_hour = 0;
  StormCategory category = StormCategory::kQuiet;  ///< classify(peak)

  [[nodiscard]] long duration_hours() const noexcept {
    return static_cast<long>(end_hour - start_hour);
  }
  [[nodiscard]] timeutil::DateTime start_datetime() const {
    return timeutil::datetime_from_hour_index(start_hour);
  }
};

/// Segments a Dst series into storm events.
class StormDetector {
 public:
  /// Hours with Dst <= `threshold_nt` belong to a storm (default: NOAA's
  /// "high geomagnetic activity" convention, the paper's minor-storm
  /// threshold).
  explicit StormDetector(double threshold_nt = kMinorThresholdNt)
      : threshold_nt_(threshold_nt) {}

  /// All storm events, in time order: each maximal run of hours at or
  /// below the threshold is one event.
  [[nodiscard]] std::vector<StormEvent> detect(const DstIndex& dst) const;

  /// Hours spent in each (non-quiet) category across the whole series —
  /// the paper's "720 hours mild / 74 hours moderate / 3 hours severe".
  [[nodiscard]] static std::map<StormCategory, long> category_hours(
      const DstIndex& dst);

  /// Durations (hours) of the events whose peak falls in the given
  /// category, detected at that category's own threshold — the
  /// per-category duration distributions of Fig 2.
  [[nodiscard]] static std::vector<double> durations_for_category(
      const DstIndex& dst, StormCategory category);

 private:
  double threshold_nt_;
};

}  // namespace cosmicdance::spaceweather
