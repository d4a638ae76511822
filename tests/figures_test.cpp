// Figure-level regression tests: the headline claims recorded in
// EXPERIMENTS.md, asserted automatically so the reproduction cannot drift
// silently.  One shared bench-scale dataset (expensive) backs all of them.
#include <gtest/gtest.h>

#include <cmath>

#include "core/pipeline.hpp"
#include "simulation/scenario.hpp"
#include "spaceweather/generator.hpp"
#include "spaceweather/storms.hpp"
#include "stats/descriptive.hpp"
#include "stats/ecdf.hpp"

namespace cosmicdance {
namespace {

using core::CosmicDance;
using core::EnvelopeSelection;
using timeutil::make_datetime;

class Figures : public ::testing::Test {
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
      auto config = simulation::scenario::paper_window(&dst, 6, 14.0);
      auto result = simulation::ConstellationSimulator(config).run();
      return new State{dst, CosmicDance(dst, std::move(result.catalog))};
    }();
    return *s;
  }
};

// ---- Fig 1 / §4 -------------------------------------------------------------

TEST_F(Figures, Fig1NinetyNinthPercentile) {
  EXPECT_NEAR(state().pipeline.dst_threshold_at_percentile(99.0), -63.0, 8.0);
}

TEST_F(Figures, Fig1CategoryHours) {
  const auto hours = spaceweather::StormDetector::category_hours(state().dst);
  EXPECT_NEAR(static_cast<double>(hours.at(spaceweather::StormCategory::kMinor)),
              720.0, 220.0);
  EXPECT_NEAR(
      static_cast<double>(hours.at(spaceweather::StormCategory::kModerate)),
      74.0, 40.0);
  EXPECT_EQ(hours.at(spaceweather::StormCategory::kSevere), 3);
}

// ---- Fig 4(a): the post-storm envelope --------------------------------------

TEST_F(Figures, Fig4aMedianPeaksMidWindow) {
  const double event_jd = timeutil::to_julian(make_datetime(2023, 9, 18, 18));
  const auto envelope = state().pipeline.post_event_envelope(
      event_jd, 30, EnvelopeSelection::kAffectedHumped);
  ASSERT_GE(envelope.satellites.size(), 5u);

  // Paper: median rises to ~5 km within 10-15 days.
  double peak_median = 0.0;
  for (int d = 8; d <= 16; ++d) {
    const double m = envelope.median_km[static_cast<std::size_t>(d)];
    if (std::isfinite(m)) peak_median = std::max(peak_median, m);
  }
  EXPECT_GT(peak_median, 2.5);
  EXPECT_LT(peak_median, 12.0);

  // Paper: the 95th-ptile stays ~10 km toward the end of the month.
  double late_p95 = 0.0;
  for (int d = 20; d < 30; ++d) {
    const double p = envelope.p95_km[static_cast<std::size_t>(d)];
    if (std::isfinite(p)) late_p95 = std::max(late_p95, p);
  }
  EXPECT_GT(late_p95, 6.0);
  EXPECT_LT(late_p95, 30.0);
}

TEST_F(Figures, Fig4bQuietEnvelopeFlat) {
  auto& pipeline = state().pipeline;
  const double p80 = pipeline.dst_threshold_at_percentile(80.0);
  const auto quiet = pipeline.correlator().quiet_epochs(p80, 40);
  ASSERT_FALSE(quiet.empty());
  const auto envelope = pipeline.post_event_envelope(
      quiet[quiet.size() / 2], 15, EnvelopeSelection::kAll);
  ASSERT_GT(envelope.satellites.size(), 20u);
  for (int d = 0; d < envelope.days; ++d) {
    const double m = envelope.median_km[static_cast<std::size_t>(d)];
    if (std::isfinite(m)) {
      EXPECT_LT(m, 2.0) << d;
    }
  }
}

// ---- Fig 5 -------------------------------------------------------------------

TEST_F(Figures, Fig5QuietBelowTenKm) {
  auto& pipeline = state().pipeline;
  const auto quiet = pipeline.altitude_changes_for_quiet(
      pipeline.dst_threshold_at_percentile(80.0), 25);
  ASSERT_GT(quiet.size(), 100u);
  EXPECT_LT(stats::percentile(quiet, 99.0), 10.0);
}

TEST_F(Figures, Fig5StormTailTensOfKm) {
  auto& pipeline = state().pipeline;
  const auto storm = pipeline.altitude_changes_for_storms(
      pipeline.dst_threshold_at_percentile(95.0));
  ASSERT_GT(storm.size(), 1000u);
  // Tens-of-km tail exists but is a small fraction (paper: at most ~1%).
  const stats::Ecdf ecdf(storm);
  EXPECT_GT(stats::max(storm), 40.0);
  EXPECT_LT(1.0 - ecdf(20.0), 0.05);
  EXPECT_GT(1.0 - ecdf(10.0), 0.001);
}

TEST_F(Figures, Fig5DragRatioAboveOne) {
  auto& pipeline = state().pipeline;
  const auto drags = pipeline.drag_changes_for_storms(
      pipeline.dst_threshold_at_percentile(95.0));
  ASSERT_GT(drags.size(), 500u);
  EXPECT_GT(stats::median(drags), 1.2);
}

// ---- Fig 6 -------------------------------------------------------------------

TEST_F(Figures, Fig6LongerStormsHeavierTail) {
  auto& pipeline = state().pipeline;
  const double p99 = pipeline.dst_threshold_at_percentile(99.0);
  const auto [short_epochs, long_epochs] =
      pipeline.correlator().storm_epochs_by_duration(p99, 9.0);
  ASSERT_GT(short_epochs.size(), 2u);
  ASSERT_GT(long_epochs.size(), 2u);
  const auto short_changes = pipeline.correlator().altitude_change_samples(
      pipeline.tracks(), short_epochs);
  const auto long_changes = pipeline.correlator().altitude_change_samples(
      pipeline.tracks(), long_epochs);
  EXPECT_GE(stats::percentile(long_changes, 99.0),
            0.8 * stats::percentile(short_changes, 99.0));
}

// ---- Fig 10 ------------------------------------------------------------------

TEST_F(Figures, Fig10CleaningShape) {
  auto& pipeline = state().pipeline;
  const core::Fig10Samples samples =
      core::fig10_samples(pipeline.catalog(), pipeline.tracks());
  const std::span<const double> raw = samples.raw();
  const std::span<const double> cleaned = samples.clean();
  EXPECT_GT(stats::max(raw), 5000.0);
  EXPECT_LE(stats::max(cleaned), 650.0);
  EXPECT_NEAR(stats::median(cleaned), 550.0, 6.0);
  const stats::Ecdf ecdf(cleaned);
  const double deorbit_tail = ecdf(500.0);
  EXPECT_GT(deorbit_tail, 0.0005);
  EXPECT_LT(deorbit_tail, 0.1);
}

}  // namespace
}  // namespace cosmicdance
