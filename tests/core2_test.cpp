// Second-round core tests: correlator corners, cleaning edge cases,
// pipeline configuration propagation and the markdown report.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "common/error.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "orbit/elements.hpp"
#include "timeutil/datetime.hpp"

namespace cosmicdance::core {
namespace {

using timeutil::make_datetime;

const double kJd0 = timeutil::to_julian(make_datetime(2023, 6, 1));

TrajectorySample sample_at(double jd, double altitude, double bstar = 2e-4) {
  TrajectorySample s;
  s.epoch_jd = jd;
  s.altitude_km = altitude;
  s.bstar = bstar;
  return s;
}

SatelliteTrack flat_track(int catalog, double altitude, double start_offset_days,
                          double days, double step = 0.5) {
  std::vector<TrajectorySample> samples;
  for (double t = 0.0; t < days; t += step) {
    samples.push_back(sample_at(kJd0 + start_offset_days + t, altitude));
  }
  return SatelliteTrack(catalog, std::move(samples));
}

spaceweather::DstIndex quiet_series(int days) {
  return spaceweather::DstIndex(make_datetime(2023, 5, 1),
                                std::vector<double>(24 * days, -10.0));
}

// ------------------------------ correlator ----------------------------------

TEST(Correlator2Test, MultipleEventsAccumulateSamples) {
  const spaceweather::DstIndex dst = quiet_series(120);
  const EventCorrelator correlator(&dst);
  std::vector<SatelliteTrack> tracks;
  tracks.push_back(flat_track(1, 550.0, -60.0, 150.0));
  const std::vector<double> events{kJd0, kJd0 + 10.0, kJd0 + 20.0};
  EXPECT_EQ(correlator.altitude_change_samples(tracks, events).size(), 3u);
}

TEST(Correlator2Test, EventBeyondTrackEndSkipped) {
  const spaceweather::DstIndex dst = quiet_series(120);
  const EventCorrelator correlator(&dst);
  std::vector<SatelliteTrack> tracks;
  tracks.push_back(flat_track(1, 550.0, -60.0, 50.0));  // ends at kJd0-10
  const std::vector<double> events{kJd0 + 20.0};
  EXPECT_TRUE(correlator.altitude_change_samples(tracks, events).empty());
}

TEST(Correlator2Test, TrackStartingInsidePostEventWindowSkippedSafely) {
  // A track whose *first* sample lies inside the post-event window has no
  // pre-event sample: at_or_before(event_jd) returns nullptr.  All three
  // scans must skip such a track explicitly — historically only
  // is_pre_decayed's own nullptr test (a policy choice, not a scan
  // invariant) stood between this shape and a null dereference.
  const spaceweather::DstIndex dst = quiet_series(120);
  const EventCorrelator correlator(&dst);
  std::vector<SatelliteTrack> tracks;
  tracks.push_back(flat_track(1, 550.0, 5.0, 60.0));  // starts at kJd0+5
  const std::vector<double> events{kJd0};
  EXPECT_TRUE(correlator.altitude_change_samples(tracks, events).empty());
  EXPECT_TRUE(correlator.drag_change_samples(tracks, events).empty());
  const auto envelope = correlator.post_event_envelope(
      tracks, kJd0, 30, EnvelopeSelection::kAll);
  EXPECT_TRUE(envelope.satellites.empty());
  EXPECT_TRUE(envelope.per_satellite.empty());
}

TEST(Correlator2Test, SparseSamplingForwardFills) {
  const spaceweather::DstIndex dst = quiet_series(120);
  const EventCorrelator correlator(&dst);
  // One sample every 5 days: unobserved days carry the last known
  // deviation forward; only days before the first in-window sample stay NaN.
  std::vector<SatelliteTrack> tracks;
  tracks.push_back(flat_track(1, 550.0, -30.0, 70.0, 5.0));
  const auto envelope = correlator.post_event_envelope(
      tracks, kJd0, 30, EnvelopeSelection::kAll);
  ASSERT_EQ(envelope.satellites.size(), 1u);
  int finite_days = 0;
  for (int d = 0; d < envelope.days; ++d) {
    if (std::isfinite(envelope.median_km[static_cast<std::size_t>(d)])) {
      ++finite_days;
    }
  }
  EXPECT_GE(finite_days, 25);
}

TEST(Correlator2Test, DragSamplesSkipNonPositiveBstar) {
  const spaceweather::DstIndex dst = quiet_series(120);
  const EventCorrelator correlator(&dst);
  std::vector<TrajectorySample> samples;
  for (double t = -20.0; t < 20.0; t += 0.5) {
    samples.push_back(sample_at(kJd0 + t, 550.0, t <= 0.0 ? 0.0 : 2e-4));
  }
  std::vector<SatelliteTrack> tracks;
  tracks.emplace_back(1, std::move(samples));
  // Pre-event B* is zero -> the ratio is undefined -> no sample.
  EXPECT_TRUE(correlator
                  .drag_change_samples(tracks, std::vector<double>{kJd0})
                  .empty());
}

TEST(Correlator2Test, WindowDaysConfigRespected) {
  const spaceweather::DstIndex dst = quiet_series(200);
  CorrelatorConfig narrow_config;
  narrow_config.window_days = 5.0;
  const EventCorrelator narrow(&dst, narrow_config);
  const EventCorrelator wide(&dst);

  // Track decays late: only the 30-day window sees the deviation.
  std::vector<TrajectorySample> samples;
  for (double t = -30.0; t < 40.0; t += 0.5) {
    const double altitude = t < 10.0 ? 550.0 : 550.0 - (t - 10.0);
    samples.push_back(sample_at(kJd0 + t, altitude));
  }
  std::vector<SatelliteTrack> tracks;
  tracks.emplace_back(1, std::move(samples));
  const std::vector<double> events{kJd0};
  const auto short_window = narrow.altitude_change_samples(tracks, events);
  const auto long_window = wide.altitude_change_samples(tracks, events);
  ASSERT_EQ(short_window.size(), 1u);
  ASSERT_EQ(long_window.size(), 1u);
  EXPECT_LT(short_window[0], 1.0);
  EXPECT_GT(long_window[0], 15.0);
}

// ------------------------------- cleaning -----------------------------------

TEST(Cleaning2Test, SingleSampleTrack) {
  std::vector<TrajectorySample> samples{sample_at(kJd0, 550.0)};
  EXPECT_EQ(remove_outliers(samples), 0u);
  EXPECT_EQ(remove_orbit_raising(samples), 0u);
  const SatelliteTrack track(1, std::move(samples));
  EXPECT_EQ(track.size(), 1u);
  // Pre-decay: fine at its own epoch (fresh sample, zero deviation).
  EXPECT_FALSE(is_pre_decayed(track, kJd0 + 0.5));
}

TEST(Cleaning2Test, AllOutliersLeavesEmptyTrack) {
  std::vector<TrajectorySample> samples{sample_at(kJd0, 39000.0),
                                        sample_at(kJd0 + 1, 20000.0)};
  EXPECT_EQ(remove_outliers(samples), 2u);
  const SatelliteTrack track(1, std::move(samples));
  EXPECT_TRUE(track.empty());
  EXPECT_TRUE(is_pre_decayed(track, kJd0));
}

TEST(Cleaning2Test, CustomOutlierBounds) {
  CleaningConfig config;
  config.outlier_max_altitude_km = 600.0;
  std::vector<TrajectorySample> samples{sample_at(kJd0, 620.0),
                                        sample_at(kJd0 + 1, 550.0)};
  EXPECT_EQ(remove_outliers(samples, config), 1u);
  EXPECT_NEAR(samples[0].altitude_km, 550.0, 1e-9);
}

TEST(Cleaning2Test, RaisingFilterKeepsPostRaiseDecay) {
  // Raise then decay: the filter must cut the raise but keep the decay.
  std::vector<TrajectorySample> samples;
  for (double t = 0.0; t < 120.0; t += 0.5) {
    double altitude = 350.0 + 2.0 * t;       // raising
    if (altitude >= 550.0) altitude = 550.0; // operational
    if (t > 110.0) altitude = 550.0 - 5.0 * (t - 110.0);  // decay at the end
    samples.push_back(sample_at(kJd0 + t, altitude));
  }
  remove_orbit_raising(samples);
  // The shell estimate (90th ptile) sits just under 550 because the decay
  // tail drags it; the cut still lands within the margin of the shell.
  EXPECT_GE(samples.front().altitude_km, 540.0);
  EXPECT_LT(samples.back().altitude_km, 520.0);  // decay retained
}

// ------------------------------- pipeline -----------------------------------

tle::TleCatalog catalog_of_flat_sats(int count) {
  tle::TleCatalog catalog;
  for (int sat = 0; sat < count; ++sat) {
    for (double t = -30.0; t < 30.0; t += 1.0) {
      tle::Tle record;
      record.catalog_number = 45000 + sat;
      record.international_designator = "20001A";
      record.epoch_jd = kJd0 + t;
      record.inclination_deg = 53.0;
      record.mean_motion_revday = orbit::mean_motion_from_altitude_km(550.0);
      record.bstar = 2e-4;
      catalog.add(record);
    }
  }
  return catalog;
}

TEST(Pipeline2Test, ConfigPropagatesToCorrelator) {
  PipelineConfig config;
  config.correlator.window_days = 7.0;
  config.correlator.cleaning.predecay_threshold_km = 2.0;
  const CosmicDance pipeline(quiet_series(120), catalog_of_flat_sats(2), config);
  EXPECT_DOUBLE_EQ(pipeline.correlator().config().window_days, 7.0);
  EXPECT_DOUBLE_EQ(
      pipeline.correlator().config().cleaning.predecay_threshold_km, 2.0);
}

TEST(Pipeline2Test, StormDetectorConfigPropagates) {
  PipelineConfig config;
  config.storm_detector.threshold_nt = -5.0;  // everything is a "storm"
  const CosmicDance pipeline(quiet_series(10), catalog_of_flat_sats(1), config);
  EXPECT_FALSE(pipeline.storms().empty());
}

TEST(Pipeline2Test, EmptyCatalogIsUsable) {
  const CosmicDance pipeline(quiet_series(10), tle::TleCatalog{});
  EXPECT_TRUE(pipeline.tracks().empty());
  EXPECT_TRUE(pipeline.altitude_changes_for_storms(-50.0).empty());
}

// -------------------------------- report ------------------------------------

TEST(ReportTest, MarkdownContainsSections) {
  // Build a dataset with one storm so every section has content.
  std::vector<double> values(24 * 60, -10.0);
  for (int h = 600; h < 610; ++h) values[static_cast<std::size_t>(h)] = -130.0;
  const spaceweather::DstIndex dst(make_datetime(2023, 5, 1), std::move(values));
  const CosmicDance pipeline(dst, catalog_of_flat_sats(3));
  const std::string report = markdown_report(pipeline);
  for (const char* needle :
       {"# CosmicDance analysis report", "## Dataset", "## Solar activity",
        "### Strongest storms", "## Happens-closely-after impact", "moderate",
        "median B*"}) {
    EXPECT_NE(report.find(needle), std::string::npos) << needle;
  }
}

TEST(ReportTest, TopStormsLimitRespected) {
  std::vector<double> values(24 * 120, -10.0);
  // Five separate storms.
  for (int storm = 0; storm < 5; ++storm) {
    for (int h = 0; h < 4; ++h) {
      values[static_cast<std::size_t>(300 + storm * 400 + h)] = -80.0;
    }
  }
  const spaceweather::DstIndex dst(make_datetime(2023, 5, 1), std::move(values));
  const CosmicDance pipeline(dst, catalog_of_flat_sats(1));
  ReportOptions options;
  options.top_storms = 2;
  const std::string report = markdown_report(pipeline, options);
  // Count itemised storm rows by their peak-intensity cell.
  std::size_t rows = 0;
  for (std::size_t pos = report.find("| -80 |"); pos != std::string::npos;
       pos = report.find("| -80 |", pos + 1)) {
    ++rows;
  }
  EXPECT_EQ(rows, 2u);
}

TEST(ReportTest, WriteToFile) {
  namespace fs = std::filesystem;
  const auto path = fs::temp_directory_path() / "cd_report_test.md";
  const CosmicDance pipeline(quiet_series(30), catalog_of_flat_sats(1));
  write_markdown_report(pipeline, path.string());
  EXPECT_TRUE(fs::exists(path));
  EXPECT_GT(fs::file_size(path), 200u);
  fs::remove(path);
}

}  // namespace
}  // namespace cosmicdance::core
