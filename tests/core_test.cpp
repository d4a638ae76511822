#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "common/error.hpp"
#include "core/analysis.hpp"
#include "core/cleaning.hpp"
#include "core/correlator.hpp"
#include "core/pipeline.hpp"
#include "core/track.hpp"
#include "io/file.hpp"
#include "orbit/elements.hpp"
#include "spaceweather/wdc.hpp"
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

/// Flat track at `altitude` sampled every 12 h for `days` days.
SatelliteTrack flat_track(int catalog, double altitude, double days,
                          double start_jd = kJd0 - 60.0) {
  std::vector<TrajectorySample> samples;
  for (double t = 0.0; t < days; t += 0.5) {
    samples.push_back(sample_at(start_jd + t, altitude));
  }
  return SatelliteTrack(catalog, std::move(samples));
}

/// Track that dips after kJd0 and recovers (a storm-outage storyline).
SatelliteTrack dip_track(int catalog, double dip_km, double dip_days,
                         double recover_by_day) {
  std::vector<TrajectorySample> samples;
  for (double t = -60.0; t < 40.0; t += 0.5) {
    double altitude = 550.0;
    double bstar = 2e-4;
    if (t > 0.0 && t <= dip_days) {
      altitude = 550.0 - dip_km * (t / dip_days);
      bstar = 2e-3;  // drag spike while uncontrolled
    } else if (t > dip_days && t < recover_by_day) {
      const double frac = (t - dip_days) / (recover_by_day - dip_days);
      altitude = 550.0 - dip_km * (1.0 - frac);
      bstar = 8e-4;
    }
    samples.push_back(sample_at(kJd0 + t, altitude, bstar));
  }
  return SatelliteTrack(catalog, std::move(samples));
}

/// Track decaying linearly from kJd0 with no recovery.
SatelliteTrack decay_track(int catalog, double rate_km_per_day) {
  std::vector<TrajectorySample> samples;
  for (double t = -60.0; t < 40.0; t += 0.5) {
    const double altitude = t <= 0.0 ? 550.0 : 550.0 - rate_km_per_day * t;
    samples.push_back(sample_at(kJd0 + t, std::max(altitude, 210.0)));
  }
  return SatelliteTrack(catalog, std::move(samples));
}

TEST(TrackTest, SortsSamples) {
  std::vector<TrajectorySample> samples{sample_at(kJd0 + 2.0, 550.0),
                                        sample_at(kJd0, 550.0),
                                        sample_at(kJd0 + 1.0, 550.0)};
  const SatelliteTrack track(7, std::move(samples));
  EXPECT_EQ(track.catalog_number(), 7);
  ASSERT_EQ(track.size(), 3u);
  EXPECT_LT(track.samples()[0].epoch_jd, track.samples()[1].epoch_jd);
}

TEST(TrackTest, Lookups) {
  const SatelliteTrack track = flat_track(1, 550.0, 10.0, kJd0);
  EXPECT_EQ(track.at_or_before(kJd0 - 1.0), nullptr);
  EXPECT_NEAR(track.at_or_before(kJd0 + 1.25)->epoch_jd, kJd0 + 1.0, 1e-9);
  EXPECT_EQ(track.between(kJd0 + 1.0, kJd0 + 3.0).size(), 4u);
  EXPECT_TRUE(track.between(kJd0 + 50.0, kJd0 + 60.0).empty());
}

TEST(TrackTest, MedianAltitude) {
  const SatelliteTrack track = flat_track(1, 547.5, 20.0);
  EXPECT_NEAR(track.median_altitude_km(), 547.5, 1e-9);
  const SatelliteTrack empty(2, {});
  EXPECT_THROW(static_cast<void>(empty.median_altitude_km()), ValidationError);
}

TEST(TrackTest, FromTles) {
  tle::TleCatalog catalog;
  tle::Tle t;
  t.catalog_number = 45000;
  t.international_designator = "20001A";
  t.epoch_jd = kJd0;
  t.inclination_deg = 53.0;
  t.mean_motion_revday = 15.06;
  t.bstar = 3e-4;
  catalog.add(t);
  t.epoch_jd = kJd0 + 0.5;
  catalog.add(t);
  const auto tracks = tracks_from_catalog(catalog);
  ASSERT_EQ(tracks.size(), 1u);
  EXPECT_EQ(tracks[0].size(), 2u);
  EXPECT_NEAR(tracks[0].samples()[0].altitude_km,
              orbit::altitude_km_from_mean_motion(15.06), 1e-9);
}

TEST(CleaningTest, OutlierRemoval) {
  std::vector<TrajectorySample> samples{
      sample_at(kJd0, 550.0), sample_at(kJd0 + 1, 40000.0),
      sample_at(kJd0 + 2, 90.0), sample_at(kJd0 + 3, 651.0),
      sample_at(kJd0 + 4, 649.0)};
  EXPECT_EQ(remove_outliers(samples), 3u);
  EXPECT_EQ(samples.size(), 2u);
  for (const auto& s : samples) {
    EXPECT_GT(s.altitude_km, 100.0);
    EXPECT_LE(s.altitude_km, 650.0);
  }
}

TEST(CleaningTest, OutlierBoundsExcludeFloorKeepCeiling) {
  // The kept band is (min, max]: a sample exactly at the floor is an
  // outlier, one exactly at the ceiling is not.
  std::vector<TrajectorySample> samples{sample_at(kJd0, 100.0),
                                        sample_at(kJd0 + 1, 650.0)};
  EXPECT_EQ(remove_outliers(samples), 1u);
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].altitude_km, 650.0);
}

TEST(CleaningTest, OrbitRaisingRemoval) {
  // 20 days staging at 350, 50 days raising, then 40 days at 550.
  std::vector<TrajectorySample> samples;
  for (double t = 0.0; t < 110.0; t += 0.5) {
    double altitude = 350.0;
    if (t >= 20.0 && t < 70.0) altitude = 350.0 + 4.0 * (t - 20.0);
    if (t >= 70.0) altitude = 550.0;
    samples.push_back(sample_at(kJd0 + t, altitude));
  }
  const std::size_t removed = remove_orbit_raising(samples);
  EXPECT_GT(removed, 100u);  // staging + raising dropped
  EXPECT_GE(samples.front().altitude_km, 545.0);
}

TEST(CleaningTest, FlatTrackUntouchedByRaisingFilter) {
  std::vector<TrajectorySample> samples = flat_track(1, 550.0, 30.0).samples();
  EXPECT_EQ(remove_orbit_raising(samples), 0u);
  EXPECT_EQ(samples.size(), 60u);
}

TEST(CleaningTest, NeverRaisedTrackKeptIntact) {
  std::vector<TrajectorySample> samples = flat_track(1, 350.0, 30.0).samples();
  EXPECT_EQ(remove_orbit_raising(samples), 0u);
}

TEST(CleaningTest, PreDecayFilter) {
  EXPECT_FALSE(is_pre_decayed(flat_track(1, 550.0, 120.0), kJd0));
  // Decaying since 30 days before the event: pre-event altitude far from the
  // long-term median.
  std::vector<TrajectorySample> samples;
  for (double t = -90.0; t < 30.0; t += 0.5) {
    const double altitude = t < -30.0 ? 550.0 : 550.0 - (t + 30.0) * 1.0;
    samples.push_back(sample_at(kJd0 + t, altitude));
  }
  // altitude drops 1 km/day from t=-30 => at t=0 it is 30 km below median.
  SatelliteTrack decaying(2, std::move(samples));
  EXPECT_TRUE(is_pre_decayed(decaying, kJd0));
}

TEST(CleaningTest, PreDecayRequiresFreshSample) {
  // Last sample 10 days before the event: too stale to anchor the analysis.
  SatelliteTrack track = flat_track(1, 550.0, 30.0, kJd0 - 40.0);
  EXPECT_TRUE(is_pre_decayed(track, kJd0));
  // No samples before the event at all.
  SatelliteTrack later = flat_track(2, 550.0, 30.0, kJd0 + 1.0);
  EXPECT_TRUE(is_pre_decayed(later, kJd0));
}

TEST(CleaningTest, CleanTracksDropsEmpty) {
  tle::TleCatalog catalog;
  tle::Tle record;
  record.international_designator = "20001A";
  record.inclination_deg = 53.0;
  record.bstar = 2e-4;
  record.catalog_number = 1;
  record.mean_motion_revday = orbit::mean_motion_from_altitude_km(550.0);
  for (double t = 0.0; t < 10.0; t += 0.5) {
    record.epoch_jd = kJd0 - 60.0 + t;
    catalog.add(record);
  }
  record.catalog_number = 2;  // all outliers
  record.epoch_jd = kJd0;
  record.mean_motion_revday = orbit::mean_motion_from_altitude_km(40000.0);
  catalog.add(record);
  const auto cleaned = clean_tracks(catalog);
  ASSERT_EQ(cleaned.size(), 1u);
  EXPECT_EQ(cleaned[0].catalog_number(), 1);
}

// ---- correlator ------------------------------------------------------------

spaceweather::DstIndex storm_series() {
  // 120 days of -10 nT with one deep storm at kJd0 (hours 60d into series).
  std::vector<double> values(static_cast<std::size_t>(24 * 120), -10.0);
  const auto start = timeutil::hour_index_from_datetime(make_datetime(2023, 4, 2));
  const auto storm_start = timeutil::hour_index_from_datetime(make_datetime(2023, 6, 1));
  for (int h = 0; h < 8; ++h) {
    values[static_cast<std::size_t>(storm_start - start + h)] =
        h < 4 ? -120.0 : -70.0;
  }
  return spaceweather::DstIndex(start, std::move(values));
}

class CorrelatorTest : public ::testing::Test {
 protected:
  CorrelatorTest() : dst_(storm_series()), correlator_(&dst_) {}
  spaceweather::DstIndex dst_;
  EventCorrelator correlator_;
};

TEST_F(CorrelatorTest, RequiresDst) {
  EXPECT_THROW(EventCorrelator(nullptr), ValidationError);
}

TEST_F(CorrelatorTest, HumpedSelectionFindsDipOnly) {
  std::vector<SatelliteTrack> tracks;
  tracks.push_back(flat_track(1, 550.0, 120.0));
  tracks.push_back(dip_track(2, 8.0, 12.0, 25.0));
  tracks.push_back(decay_track(3, 2.0));  // permanent decay: fails hump rule

  const PostEventEnvelope envelope = correlator_.post_event_envelope(
      tracks, kJd0, 30, EnvelopeSelection::kAffectedHumped);
  ASSERT_EQ(envelope.satellites.size(), 1u);
  EXPECT_EQ(envelope.satellites[0], 2);
  // Median deviation peaks mid-window around the dip bottom.
  EXPECT_GT(envelope.median_km[12], 5.0);
  EXPECT_LT(envelope.median_km[29], 2.0);  // recovered by the end
}

TEST_F(CorrelatorTest, AllSelectionIncludesEveryCleanSatellite) {
  std::vector<SatelliteTrack> tracks;
  tracks.push_back(flat_track(1, 550.0, 120.0));
  tracks.push_back(dip_track(2, 8.0, 12.0, 25.0));
  const PostEventEnvelope envelope = correlator_.post_event_envelope(
      tracks, kJd0, 15, EnvelopeSelection::kAll);
  EXPECT_EQ(envelope.satellites.size(), 2u);
  // Flat satellite contributes ~zero deviation to the median.
  EXPECT_LT(envelope.median_km[7], 4.0);
}

TEST_F(CorrelatorTest, PreDecayedExcluded) {
  std::vector<SatelliteTrack> tracks;
  // Started decaying 40 days before the event: excluded everywhere.
  std::vector<TrajectorySample> samples;
  for (double t = -60.0; t < 40.0; t += 0.5) {
    samples.push_back(sample_at(kJd0 + t, 550.0 - std::max(0.0, t + 40.0)));
  }
  tracks.push_back(SatelliteTrack(9, std::move(samples)));
  const auto envelope = correlator_.post_event_envelope(
      tracks, kJd0, 30, EnvelopeSelection::kAll);
  EXPECT_TRUE(envelope.satellites.empty());
  const auto changes = correlator_.altitude_change_samples(
      tracks, std::vector<double>{kJd0});
  EXPECT_TRUE(changes.empty());
}

TEST_F(CorrelatorTest, AltitudeChangeSamples) {
  std::vector<SatelliteTrack> tracks;
  tracks.push_back(flat_track(1, 550.0, 120.0));
  tracks.push_back(dip_track(2, 8.0, 12.0, 25.0));
  const auto changes = correlator_.altitude_change_samples(
      tracks, std::vector<double>{kJd0});
  ASSERT_EQ(changes.size(), 2u);
  // Max |deviation| within 30 days: ~0 for flat, ~8 for the dip.
  const double flat_change = std::min(changes[0], changes[1]);
  const double dip_change = std::max(changes[0], changes[1]);
  EXPECT_LT(flat_change, 0.5);
  EXPECT_NEAR(dip_change, 8.0, 0.8);
}

TEST_F(CorrelatorTest, DragChangeSamples) {
  std::vector<SatelliteTrack> tracks;
  tracks.push_back(dip_track(2, 8.0, 12.0, 25.0));
  const auto ratios = correlator_.drag_change_samples(
      tracks, std::vector<double>{kJd0});
  ASSERT_EQ(ratios.size(), 1u);
  EXPECT_NEAR(ratios[0], 10.0, 0.5);  // 2e-3 / 2e-4
}

TEST_F(CorrelatorTest, StormEpochs) {
  const auto all = correlator_.storm_event_epochs(-50.0);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_NEAR(all[0], kJd0, 0.5);
  EXPECT_TRUE(correlator_.storm_event_epochs(-150.0).empty());
  const auto [short_events, long_events] =
      correlator_.storm_epochs_by_duration(-50.0, 9.0);
  EXPECT_EQ(short_events.size(), 1u);  // the storm lasts 8 h < 9 h
  EXPECT_TRUE(long_events.empty());
}

TEST_F(CorrelatorTest, QuietEpochsAvoidStorm) {
  const auto epochs = correlator_.quiet_epochs(-30.0, 20);
  EXPECT_GT(epochs.size(), 5u);
  for (const double jd : epochs) {
    EXPECT_GT(std::fabs(jd - kJd0), 2.0) << "quiet epoch inside the storm guard";
  }
}

// ---- analysis ---------------------------------------------------------------

TEST(AnalysisTest, AllAltitudes) {
  std::vector<SatelliteTrack> tracks;
  tracks.push_back(flat_track(1, 550.0, 5.0));
  tracks.push_back(flat_track(2, 540.0, 5.0));
  const auto altitudes = all_altitudes(tracks);
  EXPECT_EQ(altitudes.size(), 20u);
}

TEST(AnalysisTest, SuperstormPanelRows) {
  const spaceweather::DstIndex dst = storm_series();
  std::vector<SatelliteTrack> tracks;
  tracks.push_back(dip_track(2, 8.0, 12.0, 25.0));
  tracks.push_back(flat_track(1, 550.0, 120.0));
  const auto rows = superstorm_panel(tracks, dst, kJd0 - 3.0, kJd0 + 4.0);
  ASSERT_EQ(rows.size(), 7u);
  // Pre-storm day: quiet Dst, 2 satellites tracked.
  EXPECT_NEAR(rows[0].dst_min_nt, -10.0, 1.0);
  EXPECT_EQ(rows[0].tracked_satellites, 2);
  // Storm day: the -120 nT dip shows up and drag (B*) jumps.
  bool saw_storm_day = false;
  for (const auto& row : rows) {
    if (row.dst_min_nt < -100.0) {
      saw_storm_day = true;
      EXPECT_GT(row.bstar_p95, 1e-3);  // the dip track's 2e-3 spike
    }
  }
  EXPECT_TRUE(saw_storm_day);
}

TEST(AnalysisTest, TrackTimelines) {
  std::vector<SatelliteTrack> tracks;
  tracks.push_back(flat_track(44943, 550.0, 10.0));
  tracks.push_back(flat_track(45400, 540.0, 10.0));
  const std::vector<int> wanted{45400, 99999};
  const auto timelines = track_timelines(tracks, wanted);
  ASSERT_EQ(timelines.size(), 1u);  // unknown id skipped
  EXPECT_EQ(timelines[0].catalog_number, 45400);
  EXPECT_EQ(timelines[0].epoch_jd.size(), 20u);
  EXPECT_DOUBLE_EQ(timelines[0].altitude_km.front(), 540.0);
}

// ---- pipeline façade --------------------------------------------------------

tle::TleCatalog synthetic_catalog() {
  tle::TleCatalog catalog;
  for (int sat = 0; sat < 3; ++sat) {
    for (double t = -40.0; t < 40.0; t += 0.5) {
      tle::Tle record;
      record.catalog_number = 45000 + sat;
      record.international_designator = "20001A";
      record.epoch_jd = kJd0 + t;
      record.inclination_deg = 53.0;
      record.mean_motion_revday =
          orbit::mean_motion_from_altitude_km(550.0 - 2.0 * sat);
      record.bstar = 2e-4;
      catalog.add(record);
    }
  }
  return catalog;
}

TEST(PipelineTest, ConstructsAndExposesViews) {
  CosmicDance pipeline(storm_series(), synthetic_catalog());
  EXPECT_EQ(pipeline.tracks().size(), 3u);
  EXPECT_EQ(pipeline.raw_tracks().size(), 3u);
  EXPECT_EQ(pipeline.catalog().satellite_count(), 3u);
  const auto storms = pipeline.storms();
  ASSERT_EQ(storms.size(), 1u);
  EXPECT_EQ(storms[0].category, spaceweather::StormCategory::kModerate);
  EXPECT_LT(pipeline.dst_threshold_at_percentile(99.9), -50.0);
}

TEST(PipelineTest, AnalysesRun) {
  CosmicDance pipeline(storm_series(), synthetic_catalog());
  const auto changes = pipeline.altitude_changes_for_storms(-50.0);
  EXPECT_EQ(changes.size(), 3u);
  const auto quiet = pipeline.altitude_changes_for_quiet(-30.0, 5);
  EXPECT_GT(quiet.size(), 0u);
  const auto drags = pipeline.drag_changes_for_storms(-50.0);
  EXPECT_EQ(drags.size(), 3u);
  const auto envelope =
      pipeline.post_event_envelope(kJd0, 10, EnvelopeSelection::kAll);
  EXPECT_EQ(envelope.satellites.size(), 3u);
}

TEST(PipelineTest, FromFiles) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "cd_pipeline_test";
  fs::create_directories(dir);
  const std::string dst_path = (dir / "dst.wdc").string();
  const std::string tle_path = (dir / "catalog.tle").string();
  spaceweather::write_wdc_file(dst_path, storm_series());
  io::write_file(tle_path, synthetic_catalog().to_text());

  const CosmicDance pipeline = CosmicDance::from_files(dst_path, tle_path);
  EXPECT_EQ(pipeline.tracks().size(), 3u);
  EXPECT_EQ(pipeline.storms().size(), 1u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace cosmicdance::core
