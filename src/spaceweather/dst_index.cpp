#include "spaceweather/dst_index.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "stats/descriptive.hpp"

namespace cosmicdance::spaceweather {

DstIndex::DstIndex(timeutil::HourIndex start_hour, std::vector<double> values_nt)
    : start_(start_hour), values_(std::move(values_nt)) {}

DstIndex::DstIndex(const timeutil::DateTime& start, std::vector<double> values_nt)
    : start_(timeutil::hour_index_from_datetime(start)),
      values_(std::move(values_nt)) {}

bool DstIndex::covers(timeutil::HourIndex hour) const noexcept {
  return hour >= start_ && hour < end_hour();
}

double DstIndex::at(timeutil::HourIndex hour) const {
  if (!covers(hour)) {
    throw ValidationError("hour outside Dst series: " + std::to_string(hour));
  }
  return values_[static_cast<std::size_t>(hour - start_)];
}

DstIndex DstIndex::slice(timeutil::HourIndex from, timeutil::HourIndex to) const {
  const timeutil::HourIndex lo = std::max(from, start_);
  const timeutil::HourIndex hi = std::min(to, end_hour());
  if (lo >= hi) return DstIndex(lo, {});
  const auto begin = values_.begin() + static_cast<std::ptrdiff_t>(lo - start_);
  const auto end = values_.begin() + static_cast<std::ptrdiff_t>(hi - start_);
  return DstIndex(lo, std::vector<double>(begin, end));
}

timeutil::DateTime DstIndex::start_datetime() const {
  return timeutil::datetime_from_hour_index(start_);
}

std::vector<double> DstIndex::sorted_intensity() const {
  std::vector<double> intensity;
  intensity.reserve(values_.size());
  for (const double v : values_) intensity.push_back(v < 0.0 ? -v : 0.0);
  std::sort(intensity.begin(), intensity.end());
  return intensity;
}

double DstIndex::intensity_percentile(double p) const {
  if (empty()) throw ValidationError("intensity percentile of empty Dst series");
  return stats::percentile_of_sorted(sorted_intensity(), p);
}

double DstIndex::dst_threshold_at_percentile(double p) const {
  return -intensity_percentile(p);
}

double DstIndex::minimum() const {
  if (empty()) throw ValidationError("minimum of empty Dst series");
  return *std::min_element(values_.begin(), values_.end());
}

}  // namespace cosmicdance::spaceweather
