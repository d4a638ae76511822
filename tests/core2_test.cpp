// Second-round core tests: correlator corners, cleaning edge cases, the
// pipeline's pre-decay threshold and storm list, and the markdown report.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <limits>

#include "common/error.hpp"
#include "core/pipeline.hpp"
#include "core/propagation.hpp"
#include "core/report.hpp"
#include "orbit/elements.hpp"
#include "timeutil/datetime.hpp"
#include "timeutil/hour_axis.hpp"

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
  // The event window is the paper's 30 days: a decay that starts just
  // inside day 30 counts, one that starts just past it does not.
  const spaceweather::DstIndex dst = quiet_series(200);
  const EventCorrelator correlator(&dst);
  const auto decaying_from = [](double start_day) {
    std::vector<TrajectorySample> samples;
    for (double t = -30.0; t < start_day; t += 0.5) {
      samples.push_back(sample_at(kJd0 + t, 550.0));
    }
    for (double t = start_day; t < 40.0; t += 0.5) {
      samples.push_back(sample_at(kJd0 + t, 530.0));
    }
    return std::vector<SatelliteTrack>{SatelliteTrack(1, std::move(samples))};
  };
  const std::vector<double> events{kJd0};
  const auto inside =
      correlator.altitude_change_samples(decaying_from(29.9), events);
  const auto past =
      correlator.altitude_change_samples(decaying_from(30.1), events);
  ASSERT_EQ(inside.size(), 1u);
  ASSERT_EQ(past.size(), 1u);
  EXPECT_NEAR(inside[0], 20.0, 1e-9);
  EXPECT_NEAR(past[0], 0.0, 1e-9);
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

tle::Tle record_at(int catalog_number, double day, double altitude_km) {
  tle::Tle record;
  record.catalog_number = catalog_number;
  record.international_designator = "20001A";
  record.epoch_jd = kJd0 + day;
  record.inclination_deg = 53.0;
  record.mean_motion_revday = orbit::mean_motion_from_altitude_km(altitude_km);
  record.bstar = 2e-4;
  return record;
}

tle::TleCatalog catalog_of_flat_sats(int count) {
  tle::TleCatalog catalog;
  for (int sat = 0; sat < count; ++sat) {
    for (double t = -30.0; t < 30.0; t += 1.0) {
      catalog.add(record_at(45000 + sat, t, 550.0));
    }
  }
  return catalog;
}

TEST(Pipeline2Test, ConfigPropagatesToCorrelator) {
  // One satellite 3 km under its long-term median in the days before the
  // event: pre-decayed under a 2 km threshold, kept under the default 5 km.
  tle::TleCatalog catalog;
  for (double t = -30.0; t < 30.0; t += 1.0) {
    catalog.add(record_at(45000, t, t >= -2.0 && t <= 0.0 ? 547.0 : 550.0));
  }
  PipelineConfig strict;
  strict.predecay_threshold_km = 2.0;
  const CosmicDance kept(quiet_series(120), catalog);
  const CosmicDance excluded(quiet_series(120), catalog, strict);
  const std::vector<double> events{kJd0};
  EXPECT_EQ(
      kept.correlator().altitude_change_samples(kept.tracks(), events).size(),
      1u);
  EXPECT_TRUE(excluded.correlator()
                  .altitude_change_samples(excluded.tracks(), events)
                  .empty());
}

TEST(Pipeline2Test, OneStormListServesEveryFigure) {
  // Storms of several peaks and durations (hours at or below -50 nT).
  struct Storm {
    int start_hour;
    int hours;
    double peak_nt;
  };
  const Storm storms[] = {{100, 3, -60.0},   {400, 12, -95.0},
                          {700, 6, -140.0},  {1000, 20, -230.0},
                          {1300, 9, -75.0},  {1600, 1, -360.0},
                          {1900, 15, -55.0}, {2000, 8, -110.0}};
  std::vector<double> values(24 * 90, -10.0);
  for (const Storm& storm : storms) {
    for (int h = 0; h < storm.hours; ++h) {
      values[static_cast<std::size_t>(storm.start_hour + h)] =
          h == storm.hours / 2 ? storm.peak_nt : -52.0;
    }
  }
  const CosmicDance pipeline(
      spaceweather::DstIndex(make_datetime(2023, 5, 1), std::move(values)),
      catalog_of_flat_sats(1));
  ASSERT_EQ(pipeline.storms().size(), std::size(storms));

  for (const double t : {-50.0, -60.0, -75.0, -100.0, -200.0, -400.0}) {
    std::vector<double> epochs;
    std::vector<double> shorter;
    std::vector<double> longer;
    for (const spaceweather::StormEvent& storm : pipeline.storms()) {
      if (storm.peak_dst_nt > t) continue;
      const double epoch = timeutil::julian_from_hour_index(storm.peak_hour);
      epochs.push_back(epoch);
      (storm.duration_hours() < 9 ? shorter : longer).push_back(epoch);
    }
    EXPECT_EQ(pipeline.correlator().storm_event_epochs(t), epochs) << t;
    const auto [below_split, at_or_above_split] =
        pipeline.correlator().storm_epochs_by_duration(t, 9.0);
    EXPECT_EQ(below_split, shorter) << t;
    EXPECT_EQ(at_or_above_split, longer) << t;
  }
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
  // Twelve separate storms; the report itemises the strongest ten.
  for (int storm = 0; storm < 12; ++storm) {
    for (int h = 0; h < 4; ++h) {
      values[static_cast<std::size_t>(300 + storm * 200 + h)] = -80.0;
    }
  }
  const spaceweather::DstIndex dst(make_datetime(2023, 5, 1), std::move(values));
  const CosmicDance pipeline(dst, catalog_of_flat_sats(1));
  ASSERT_EQ(pipeline.storms().size(), 12u);
  const std::string report = markdown_report(pipeline);
  // Count itemised storm rows by their peak-intensity cell.
  std::size_t rows = 0;
  for (std::size_t pos = report.find("| -80 |"); pos != std::string::npos;
       pos = report.find("| -80 |", pos + 1)) {
    ++rows;
  }
  EXPECT_EQ(rows, 10u);
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

TEST(PropagationGridTest, UncountableGridsThrowBeforeTheyAllocate) {
  // A NaN or infinite end, or a step too fine for its window, has no epoch
  // count to reserve: each throws instead of casting it to std::size_t.
  const double start = 2460000.0;
  EXPECT_THROW((void)make_grid(start, std::nan(""), 24.0), ValidationError);
  EXPECT_THROW((void)make_grid(start, std::numeric_limits<double>::infinity(), 24.0),
               ValidationError);
  EXPECT_THROW((void)make_grid(start, start + 30.0, 1e-300), ValidationError);
  EXPECT_EQ(make_grid(start, start + 1.0, 12.0).size(), 3u);
}

}  // namespace
}  // namespace cosmicdance::core
