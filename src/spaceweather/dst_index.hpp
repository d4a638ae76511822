// The hourly Disturbance storm time (Dst) index series.
//
// Dst measures the depression of Earth's equatorial magnetic field in
// nanoTesla; large negative excursions are geomagnetic storms.  The WDC
// Kyoto archive publishes it hourly, which fixes this type's shape: a dense
// array of hourly values anchored at an integral hour index.
#pragma once

#include <span>
#include <vector>

#include "timeutil/datetime.hpp"
#include "timeutil/hour_axis.hpp"

namespace cosmicdance::spaceweather {

/// Dense hourly Dst series.  Invariant: one value per hour, contiguous.
class DstIndex {
 public:
  DstIndex() = default;

  /// Build from a start hour and hourly values.
  DstIndex(timeutil::HourIndex start_hour, std::vector<double> values_nt);

  /// Convenience: anchor at a civil timestamp (floored to the hour).
  DstIndex(const timeutil::DateTime& start, std::vector<double> values_nt);

  [[nodiscard]] bool empty() const noexcept { return values_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
  [[nodiscard]] timeutil::HourIndex start_hour() const noexcept { return start_; }
  /// One past the last hour.
  [[nodiscard]] timeutil::HourIndex end_hour() const noexcept {
    return start_ + static_cast<timeutil::HourIndex>(values_.size());
  }
  [[nodiscard]] std::span<const double> values() const noexcept { return values_; }

  /// True when `hour` falls inside the series.
  [[nodiscard]] bool covers(timeutil::HourIndex hour) const noexcept;

  /// Dst value at an hour.  Throws ValidationError outside the series.
  [[nodiscard]] double at(timeutil::HourIndex hour) const;

  /// Append one more hour to the end of the series.
  void push_back(double value_nt) { values_.push_back(value_nt); }

  /// Sub-series covering [from, to) hours (clamped to the series range).
  [[nodiscard]] DstIndex slice(timeutil::HourIndex from, timeutil::HourIndex to) const;

  /// Civil time of the first sample.
  [[nodiscard]] timeutil::DateTime start_datetime() const;

  /// Intensity percentile: the p-th percentile of |negative excursion|
  /// (-Dst clamped at 0), in positive nT.  The paper's "99th-ptile
  /// intensity = -63 nT" corresponds to intensity_percentile(99) == 63.
  [[nodiscard]] double intensity_percentile(double p) const;

  /// Every hour's intensity (-Dst clamped at 0), ascending: the sample
  /// intensity_percentile reads, for callers that ask for many percentiles
  /// (stats::percentile_of_sorted).  Empty for an empty series.
  [[nodiscard]] std::vector<double> sorted_intensity() const;

  /// The Dst threshold (negative nT) corresponding to an intensity
  /// percentile, i.e. -intensity_percentile(p).
  [[nodiscard]] double dst_threshold_at_percentile(double p) const;

  /// Minimum (most negative) Dst in the series.  Throws when empty.
  [[nodiscard]] double minimum() const;

 private:
  timeutil::HourIndex start_ = 0;
  std::vector<double> values_;
};

}  // namespace cosmicdance::spaceweather
