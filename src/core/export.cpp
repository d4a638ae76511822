#include "core/export.hpp"

#include <cstdio>

#include "timeutil/hour_axis.hpp"

namespace cosmicdance::core {
namespace {

std::string num(double value, int precision = 6) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*g", precision, value);
  return buffer;
}

}  // namespace

std::vector<io::CsvRow> ecdf_csv(const stats::Ecdf& ecdf,
                                 const std::string& value_name,
                                 std::size_t max_points) {
  return ecdf_csv(ecdf.points(max_points), value_name);
}

std::vector<io::CsvRow> ecdf_csv(
    std::span<const std::pair<double, double>> points,
    const std::string& value_name) {
  std::vector<io::CsvRow> rows;
  rows.push_back({value_name, "cdf"});
  for (const auto& [x, f] : points) {
    rows.push_back({num(x), num(f)});
  }
  return rows;
}

std::vector<io::CsvRow> storms_csv(
    std::span<const spaceweather::StormEvent> storms) {
  std::vector<io::CsvRow> rows;
  rows.push_back({"onset_utc", "peak_utc", "peak_dst_nt", "category",
                  "duration_hours"});
  for (const auto& storm : storms) {
    rows.push_back({storm.start_datetime().to_string(),
                    timeutil::datetime_from_hour_index(storm.peak_hour).to_string(),
                    num(storm.peak_dst_nt),
                    spaceweather::to_string(storm.category),
                    std::to_string(storm.duration_hours())});
  }
  return rows;
}

}  // namespace cosmicdance::core
