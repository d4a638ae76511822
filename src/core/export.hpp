// CSV export of analysis results — the bridge between the library and
// external plotting (the original CosmicDance plots from files; so do the
// bundled CLI and any downstream notebooks).
#pragma once

#include <span>
#include <utility>

#include "io/csv.hpp"
#include "spaceweather/storms.hpp"
#include "stats/ecdf.hpp"

namespace cosmicdance::core {

/// Points an exported ECDF is thinned to by default.
inline constexpr std::size_t kEcdfCsvPoints = 400;

/// ECDF as rows of (value, cdf), thinned to at most `max_points`, with a
/// header row naming the value column.
[[nodiscard]] std::vector<io::CsvRow> ecdf_csv(
    const stats::Ecdf& ecdf, const std::string& value_name,
    std::size_t max_points = kEcdfCsvPoints);

/// The same rows from (value, cdf) points already thinned, such as
/// stats::ecdf_points returns.
[[nodiscard]] std::vector<io::CsvRow> ecdf_csv(
    std::span<const std::pair<double, double>> points,
    const std::string& value_name);

/// Storm events: onset, peak time, peak nT, category, duration hours.
[[nodiscard]] std::vector<io::CsvRow> storms_csv(
    std::span<const spaceweather::StormEvent> storms);

}  // namespace cosmicdance::core
