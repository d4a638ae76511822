#include "spaceweather/storms.hpp"

namespace cosmicdance::spaceweather {

std::vector<StormEvent> StormDetector::detect(const DstIndex& dst) const {
  std::vector<StormEvent> events;
  const auto values = dst.values();
  const timeutil::HourIndex start = dst.start_hour();

  bool in_storm = false;
  StormEvent current;
  auto close = [&]() {
    current.category = classify(current.peak_dst_nt);
    events.push_back(current);
    in_storm = false;
  };

  for (std::size_t i = 0; i < values.size(); ++i) {
    const timeutil::HourIndex hour = start + static_cast<timeutil::HourIndex>(i);
    const double v = values[i];
    if (v <= threshold_nt_) {
      if (!in_storm) {
        in_storm = true;
        current = StormEvent{};
        current.start_hour = hour;
        current.peak_dst_nt = v;
        current.peak_hour = hour;
      } else if (v < current.peak_dst_nt) {
        current.peak_dst_nt = v;
        current.peak_hour = hour;
      }
      current.end_hour = hour + 1;
    } else if (in_storm) {
      close();  // the first hour back above the threshold ends the storm
    }
  }
  if (in_storm) close();
  return events;
}

std::map<StormCategory, long> StormDetector::category_hours(const DstIndex& dst) {
  std::map<StormCategory, long> hours;
  for (const double v : dst.values()) {
    const StormCategory c = classify(v);
    if (c != StormCategory::kQuiet) ++hours[c];
  }
  return hours;
}

std::vector<double> StormDetector::durations_for_category(
    const DstIndex& dst, StormCategory category) {
  // The paper measures a category's storm duration as the contiguous time
  // spent below that category's own threshold (e.g. the severe storm of
  // 24 Apr 2023 "lasted for 3 contiguous hours" below -200 nT), so detect
  // with the category threshold and keep events peaking in the category.
  std::vector<double> durations;
  for (const StormEvent& event : StormDetector(threshold(category)).detect(dst)) {
    if (event.category == category) {
      durations.push_back(static_cast<double>(event.duration_hours()));
    }
  }
  return durations;
}

}  // namespace cosmicdance::spaceweather
