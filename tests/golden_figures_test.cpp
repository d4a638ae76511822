// Golden-file regression tests for the fig05_intensity_cdfs and
// fig07_superstorm data series: the committed CSVs under tests/golden/ pin
// the exact shapes those benches report, so an accidental change to the
// pipeline (cleaning rules, correlator windows, drag statistics, parallel
// scheduling) shows up as a cell-level diff rather than a silently shifted
// figure.  Comparison is epsilon-aware per numeric cell; text cells must
// match exactly.
//
// Regenerating after an *intentional* change:
//   COSMICDANCE_REGEN_GOLDEN=1 ./golden_figures_test
// then commit the rewritten files with the change that motivated them.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "core/analysis.hpp"
#include "core/export.hpp"
#include "core/pipeline.hpp"
#include "io/csv.hpp"
#include "io/parse.hpp"
#include "simulation/scenario.hpp"
#include "spaceweather/generator.hpp"
#include "stats/ecdf.hpp"
#include "support/golden_csv.hpp"

#ifndef COSMICDANCE_GOLDEN_DIR
#error "build must define COSMICDANCE_GOLDEN_DIR"
#endif

namespace cosmicdance {
namespace {

constexpr double kAbsEpsilon = 1e-9;
constexpr double kRelEpsilon = 1e-7;

std::string golden_path(const char* name) {
  return std::string(COSMICDANCE_GOLDEN_DIR) + "/" + name;
}

bool regen_requested() {
  const char* env = std::getenv("COSMICDANCE_REGEN_GOLDEN");
  return env != nullptr && *env != '\0' && std::string(env) != "0";
}

/// Epsilon-aware CSV comparison: numeric cells compare within
/// max(kAbsEpsilon, kRelEpsilon * |expected|); anything non-numeric must be
/// byte-identical.  Reports the first mismatching cell.
::testing::AssertionResult CsvMatchesGolden(
    const std::vector<io::CsvRow>& actual, const std::string& path) {
  const std::vector<io::CsvRow> expected = test_support::read_golden_csv(path);
  if (actual.size() != expected.size()) {
    return ::testing::AssertionFailure()
           << path << ": row count " << actual.size() << " vs golden "
           << expected.size();
  }
  for (std::size_t r = 0; r < expected.size(); ++r) {
    if (actual[r].size() != expected[r].size()) {
      return ::testing::AssertionFailure()
             << path << " row " << r << ": column count " << actual[r].size()
             << " vs golden " << expected[r].size();
    }
    for (std::size_t c = 0; c < expected[r].size(); ++c) {
      const std::string& a = actual[r][c];
      const std::string& e = expected[r][c];
      const std::optional<double> av = io::parse_double(a);
      const std::optional<double> ev = io::parse_double(e);
      if (av.has_value() && ev.has_value()) {
        const double tolerance =
            std::max(kAbsEpsilon, kRelEpsilon * std::fabs(*ev));
        if (std::fabs(*av - *ev) > tolerance) {
          return ::testing::AssertionFailure()
                 << path << " row " << r << " col " << c << ": " << a
                 << " vs golden " << e << " (|diff| "
                 << std::fabs(*av - *ev) << " > " << tolerance << ")";
        }
      } else if (a != e) {
        return ::testing::AssertionFailure()
               << path << " row " << r << " col " << c << ": '" << a
               << "' vs golden '" << e << "'";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

void check_or_regen(const std::vector<io::CsvRow>& actual, const char* name) {
  const std::string path = golden_path(name);
  if (regen_requested()) {
    io::write_csv_file(path, actual);
    GTEST_SKIP() << "regenerated " << path;
  }
  EXPECT_TRUE(CsvMatchesGolden(actual, path));
}

// ---- fig05: intensity-dependent altitude / drag change CDFs ---------------

TEST(GoldenFigures, Fig05IntensityCdfs) {
  const auto dst = spaceweather::DstGenerator(
                       spaceweather::DstGenerator::paper_window_2020_2024())
                       .generate();
  auto config = simulation::scenario::paper_window(&dst, 2, 30.0);
  auto catalog = simulation::ConstellationSimulator(config).run().catalog;
  const core::CosmicDance pipeline(dst, std::move(catalog));

  const double p80 = pipeline.dst_threshold_at_percentile(80.0);
  const double p95 = pipeline.dst_threshold_at_percentile(95.0);

  const auto quiet = pipeline.altitude_changes_for_quiet(p80, 30);
  ASSERT_FALSE(quiet.empty());
  check_or_regen(core::ecdf_csv(stats::Ecdf(quiet), "alt_change_km", 40),
                 "fig05a_quiet_altitude_cdf.csv");

  const auto storm = pipeline.altitude_changes_for_storms(p95);
  ASSERT_FALSE(storm.empty());
  check_or_regen(core::ecdf_csv(stats::Ecdf(storm), "alt_change_km", 40),
                 "fig05b_storm_altitude_cdf.csv");

  const auto drags = pipeline.drag_changes_for_storms(p95);
  ASSERT_FALSE(drags.empty());
  check_or_regen(core::ecdf_csv(stats::Ecdf(drags), "bstar_ratio", 40),
                 "fig05c_drag_change_cdf.csv");
}

// ---- fig07: May 2024 super-storm daily panel ------------------------------

/// The panel as CSV rows: the ISO day, then each value as %.6g.
std::vector<io::CsvRow> panel_rows(
    const std::vector<core::SuperstormPanelRow>& panel) {
  const auto num = [](double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.6g", value);
    return std::string(buffer);
  };
  std::vector<io::CsvRow> rows;
  rows.push_back({"date", "min_dst_nt", "bstar_mean", "bstar_median",
                  "bstar_p95", "tracked_satellites", "tle_count"});
  for (const auto& row : panel) {
    rows.push_back({timeutil::from_julian(row.day_jd).to_string(),
                    num(row.dst_min_nt), num(row.bstar_mean),
                    num(row.bstar_median), num(row.bstar_p95),
                    std::to_string(row.tracked_satellites),
                    std::to_string(row.tle_count)});
  }
  return rows;
}

TEST(GoldenFigures, Fig07SuperstormPanel) {
  const auto dst = spaceweather::DstGenerator(
                       spaceweather::DstGenerator::with_may_2024_superstorm())
                       .generate();
  auto config = simulation::scenario::may_2024(&dst, /*fleet_size=*/300);
  auto run = simulation::ConstellationSimulator(config).run();
  const core::CosmicDance pipeline(dst, std::move(run.catalog));

  const double start = timeutil::to_julian(timeutil::make_datetime(2024, 5, 1));
  const double end = timeutil::to_julian(timeutil::make_datetime(2024, 6, 1));
  const auto rows = core::superstorm_panel(pipeline.tracks(), dst, start, end,
                                           pipeline.config().num_threads);
  ASSERT_FALSE(rows.empty());
  check_or_regen(panel_rows(rows), "fig07_superstorm_panel.csv");
}

}  // namespace
}  // namespace cosmicdance
