// Tests for the paper's future-work extensions: streaming storm triggers,
// latitude-band analysis, shell-trespass/Kessler exposure, orbital-lifetime
// estimation, and the what-if scenarios.
#include <gtest/gtest.h>

#include <cmath>

#include "atmosphere/lifetime.hpp"
#include "common/error.hpp"
#include "core/latitude.hpp"
#include "core/shells.hpp"
#include "core/trigger.hpp"
#include "orbit/elements.hpp"
#include "simulation/scenario.hpp"
#include "spaceweather/generator.hpp"

namespace cosmicdance {
namespace {

using core::SatelliteTrack;
using core::TrajectorySample;
using timeutil::make_datetime;

// ---------------------------- StormTrigger ----------------------------------

TEST(TriggerTest, FiresOnsetAndReleaseWithHysteresis) {
  core::StormTrigger trigger;
  const timeutil::HourIndex h0 = 1000;
  EXPECT_FALSE(trigger.feed(h0, -10.0).has_value());
  const auto onset = trigger.feed(h0 + 1, -60.0);
  ASSERT_TRUE(onset.has_value());
  EXPECT_EQ(onset->kind, core::TriggerEvent::Kind::kOnset);
  EXPECT_TRUE(trigger.active());
  // Recovery to -40 is above onset but below release (-30): still active.
  EXPECT_FALSE(trigger.feed(h0 + 2, -40.0).has_value());
  EXPECT_TRUE(trigger.active());
  // Two quiet hours above -30 release it.
  EXPECT_FALSE(trigger.feed(h0 + 3, -20.0).has_value());
  const auto release = trigger.feed(h0 + 4, -15.0);
  ASSERT_TRUE(release.has_value());
  EXPECT_EQ(release->kind, core::TriggerEvent::Kind::kRelease);
  EXPECT_DOUBLE_EQ(release->peak_dst_nt, -60.0);
  EXPECT_FALSE(trigger.active());
}

TEST(TriggerTest, DebouncesOnset) {
  core::StormTriggerConfig config;
  config.min_active_hours = 3;
  core::StormTrigger trigger(config);
  const timeutil::HourIndex h0 = 0;
  EXPECT_FALSE(trigger.feed(h0, -55.0).has_value());
  EXPECT_FALSE(trigger.feed(h0 + 1, -55.0).has_value());
  // A quiet hour resets the debounce counter.
  EXPECT_FALSE(trigger.feed(h0 + 2, -10.0).has_value());
  EXPECT_FALSE(trigger.feed(h0 + 3, -55.0).has_value());
  EXPECT_FALSE(trigger.feed(h0 + 4, -55.0).has_value());
  EXPECT_TRUE(trigger.feed(h0 + 5, -55.0).has_value());
}

TEST(TriggerTest, OnsetPeakTracksDeepestDebounceHour) {
  // Regression: the onset event once reported the *firing* hour's Dst as
  // peak_dst_nt, losing deeper excursions earlier in the debounce window —
  // exactly the common storm shape where the main-phase minimum precedes
  // the hour that completes the debounce count.
  core::StormTriggerConfig config;
  config.min_active_hours = 3;
  core::StormTrigger trigger(config);
  EXPECT_FALSE(trigger.feed(0, -90.0).has_value());
  EXPECT_FALSE(trigger.feed(1, -120.0).has_value());  // deepest hour
  const auto onset = trigger.feed(2, -70.0);          // firing hour, shallower
  ASSERT_TRUE(onset.has_value());
  EXPECT_EQ(onset->kind, core::TriggerEvent::Kind::kOnset);
  EXPECT_DOUBLE_EQ(onset->dst_nt, -70.0);
  EXPECT_DOUBLE_EQ(onset->peak_dst_nt, -120.0);
  EXPECT_DOUBLE_EQ(trigger.peak_dst_nt(), -120.0);
  // The release's whole-interval peak carries the debounce minimum too.
  EXPECT_FALSE(trigger.feed(3, -20.0).has_value());
  const auto release = trigger.feed(4, -10.0);
  ASSERT_TRUE(release.has_value());
  EXPECT_EQ(release->kind, core::TriggerEvent::Kind::kRelease);
  EXPECT_DOUBLE_EQ(release->peak_dst_nt, -120.0);
}

TEST(TriggerTest, TracksPeakWhileActive) {
  core::StormTrigger trigger;
  trigger.feed(0, -60.0);
  trigger.feed(1, -120.0);
  trigger.feed(2, -80.0);
  EXPECT_DOUBLE_EQ(trigger.peak_dst_nt(), -120.0);
}

TEST(TriggerTest, RejectsGapsAndBadConfig) {
  core::StormTrigger trigger;
  (void)trigger.feed(10, -10.0);
  EXPECT_THROW((void)trigger.feed(12, -10.0), ValidationError);

  core::StormTriggerConfig bad;
  bad.release_nt = bad.onset_nt;
  EXPECT_THROW(core::StormTrigger{bad}, ValidationError);
  bad = {};
  bad.min_quiet_hours = 0;
  EXPECT_THROW(core::StormTrigger{bad}, ValidationError);
}

TEST(TriggerTest, ReplayPairsOnsetsAndReleases) {
  const auto dst = spaceweather::DstGenerator(
                       spaceweather::DstGenerator::paper_window_2020_2024())
                       .generate();
  core::StormTrigger trigger;
  const auto events = trigger.replay(dst);
  ASSERT_GT(events.size(), 100u);
  // Alternating onset/release, onsets first.
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto expected = (i % 2 == 0) ? core::TriggerEvent::Kind::kOnset
                                       : core::TriggerEvent::Kind::kRelease;
    EXPECT_EQ(events[i].kind, expected) << i;
    if (i > 0) {
      EXPECT_GT(events[i].hour, events[i - 1].hour);
    }
  }
  // Every release carries a peak at or below the onset threshold.
  for (const auto& event : events) {
    if (event.kind == core::TriggerEvent::Kind::kRelease) {
      EXPECT_LE(event.peak_dst_nt, -50.0);
    }
  }
}

// ------------------------- latitude-band analysis ---------------------------

tle::Tle leo_record(double jd, double mean_anomaly_deg,
                    double inclination_deg = 53.0) {
  tle::Tle t;
  t.catalog_number = 45000;
  t.international_designator = "20001A";
  t.epoch_jd = jd;
  t.mean_motion_revday = orbit::mean_motion_from_altitude_km(550.0);
  t.inclination_deg = inclination_deg;
  t.raan_deg = 123.0;
  t.eccentricity = 1e-4;
  t.arg_perigee_deg = 0.0;
  t.mean_anomaly_deg = mean_anomaly_deg;
  t.bstar = 3e-4;
  return t;
}

TEST(LatitudeTest, SampleLatitudeBoundedByInclination) {
  const double jd = timeutil::to_julian(make_datetime(2023, 6, 1));
  for (double ma = 0.0; ma < 360.0; ma += 15.0) {
    const double lat = core::sample_latitude_deg(leo_record(jd, ma));
    EXPECT_GE(lat, 0.0);
    EXPECT_LE(lat, 53.5);  // |latitude| can never exceed the inclination
  }
}

TEST(LatitudeTest, EquatorialOrbitStaysEquatorial) {
  const double jd = timeutil::to_julian(make_datetime(2023, 6, 1));
  const double lat = core::sample_latitude_deg(leo_record(jd, 77.0, 0.1));
  EXPECT_LT(lat, 1.0);
}

TEST(LatitudeTest, DwellConcentratesNearInclination) {
  // Uniformly-phased samples of a 53-degree orbit dwell longest near the
  // turning latitude — the classic ground-track density shape.
  const double jd0 = timeutil::to_julian(make_datetime(2023, 6, 1));
  tle::TleCatalog catalog;
  for (int i = 0; i < 720; ++i) {
    catalog.add(leo_record(jd0 + i * 0.013, i * 11.25));
  }
  const auto tracks = core::tracks_from_catalog(catalog);
  const auto bands =
      core::latitude_band_drag(tracks, catalog, jd0 - 1.0, jd0 + 100.0, 6);
  ASSERT_EQ(bands.size(), 6u);
  // Band [45,60) contains the 53-degree turning latitude: heavier dwell
  // than the equatorial band; nothing above 60.
  EXPECT_GT(bands[3].dwell_fraction, bands[0].dwell_fraction);
  EXPECT_EQ(bands[4].samples, 0u);
  EXPECT_EQ(bands[5].samples, 0u);
  double total = 0.0;
  for (const auto& band : bands) total += band.dwell_fraction;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(LatitudeTest, SkipsUnpropagatableSamples) {
  const double jd0 = timeutil::to_julian(make_datetime(2023, 6, 1));
  tle::Tle bad = leo_record(jd0 + 0.1, 10.0);
  // below ground perigee once eccentric
  bad.mean_motion_revday = orbit::mean_motion_from_altitude_km(80.0);
  bad.eccentricity = 0.05;
  tle::TleCatalog catalog;
  catalog.add(leo_record(jd0, 0.0));
  catalog.add(bad);
  // Uncleaned, so the 80 km record reaches the geolocation.
  const auto tracks = core::tracks_from_catalog(catalog);
  const auto bands =
      core::latitude_band_drag(tracks, catalog, jd0 - 1.0, jd0 + 1.0, 3);
  std::size_t total = 0;
  for (const auto& band : bands) total += band.samples;
  EXPECT_EQ(total, 1u);  // the bad record was skipped, not fatal
  EXPECT_THROW(core::latitude_band_drag(tracks, catalog, 0.0, 1.0, 0),
               ValidationError);
}

// ------------------------------ shells --------------------------------------

SatelliteTrack shell_track(int catalog, std::vector<std::pair<double, double>>
                                            day_altitude) {
  const double jd0 = timeutil::to_julian(make_datetime(2023, 6, 1));
  std::vector<TrajectorySample> samples;
  for (const auto& [day, altitude] : day_altitude) {
    TrajectorySample s;
    s.epoch_jd = jd0 + day;
    s.altitude_km = altitude;
    s.bstar = 2e-4;
    samples.push_back(s);
  }
  return SatelliteTrack(catalog, std::move(samples));
}

TEST(ShellTest, NearestShell) {
  const core::ShellConfig config;
  EXPECT_DOUBLE_EQ(core::nearest_shell_km(551.0, config), 550.0);
  EXPECT_DOUBLE_EQ(core::nearest_shell_km(500.0, config), 540.0);
  EXPECT_DOUBLE_EQ(core::nearest_shell_km(566.0, config), 570.0);
  EXPECT_THROW(static_cast<void>(core::nearest_shell_km(550.0, core::ShellConfig{{}, 2.5})),
               ValidationError);
}

TEST(ShellTest, DecayingSatelliteTrespassesLowerShells) {
  // Home shell 560; decays through 550 and 540.
  std::vector<SatelliteTrack> tracks;
  tracks.push_back(shell_track(
      1, {{0.0, 560.0}, {5.0, 560.0}, {10.0, 556.0}, {12.0, 550.5},
          {14.0, 545.0}, {16.0, 540.2}, {18.0, 535.0}}));
  const auto events = core::shell_trespasses(tracks);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_DOUBLE_EQ(events[0].home_shell_km, 560.0);
  EXPECT_DOUBLE_EQ(events[0].crossed_shell_km, 550.0);
  EXPECT_DOUBLE_EQ(events[1].crossed_shell_km, 540.0);
  EXPECT_LT(events[0].entry_jd, events[1].entry_jd);
}

TEST(ShellTest, StationKeptSatelliteNeverTrespasses) {
  std::vector<SatelliteTrack> tracks;
  tracks.push_back(shell_track(1, {{0.0, 550.0}, {5.0, 549.2}, {10.0, 550.4},
                                   {15.0, 550.9}, {20.0, 549.5}}));
  EXPECT_TRUE(core::shell_trespasses(tracks).empty());
  EXPECT_DOUBLE_EQ(core::foreign_shell_dwell_days(tracks), 0.0);
}

TEST(ShellTest, ReentryIntoSameBandCountsAgain) {
  std::vector<SatelliteTrack> tracks;
  tracks.push_back(shell_track(1, {{0.0, 560.0}, {2.0, 551.0},  // enter 550
                                   {4.0, 556.0},                // leave
                                   {6.0, 550.0},                // re-enter
                                   {8.0, 560.0}}));
  EXPECT_EQ(core::shell_trespasses(tracks).size(), 2u);
}

TEST(ShellTest, DwellAccountsGapsCapped) {
  std::vector<SatelliteTrack> tracks;
  // Inside the foreign 550-band for one 1-day gap and one 30-day gap
  // (capped at 2 days).
  tracks.push_back(shell_track(
      1, {{0.0, 560.0}, {2.0, 550.0}, {3.0, 550.5}, {33.0, 560.0}}));
  EXPECT_NEAR(core::foreign_shell_dwell_days(tracks), 1.0 + 2.0, 1e-9);
}

TEST(ShellTest, WindowedTrespasses) {
  std::vector<SatelliteTrack> tracks;
  tracks.push_back(shell_track(
      1, {{0.0, 560.0}, {2.0, 550.0}, {4.0, 560.0}, {20.0, 550.0}}));
  const double jd0 = timeutil::to_julian(make_datetime(2023, 6, 1));
  EXPECT_EQ(core::shell_trespasses_between(tracks, jd0, jd0 + 10.0).size(), 1u);
  EXPECT_EQ(core::shell_trespasses_between(tracks, jd0 + 10.0, jd0 + 30.0).size(),
            1u);
}

// ----------------------------- lifetime -------------------------------------

TEST(LifetimeTest, MonotoneInAltitudeAndBallistic) {
  const double life_550 = atmosphere::decay_lifetime_days(550.0, 0.01);
  const double life_500 = atmosphere::decay_lifetime_days(500.0, 0.01);
  const double life_550_heavy = atmosphere::decay_lifetime_days(550.0, 0.05);
  EXPECT_GT(life_550, life_500);
  EXPECT_GT(life_550, life_550_heavy);
}

TEST(LifetimeTest, RealisticScales) {
  // A tumbling satellite at 300 km reenters within weeks.
  const double low = atmosphere::decay_lifetime_days(300.0, 0.3);
  EXPECT_LT(low, 60.0);
  EXPECT_GT(low, 1.0);
  // A knife-edge satellite at 550 km lasts years (quiet atmosphere).
  EXPECT_GT(atmosphere::decay_lifetime_days(550.0, 0.004), 5.0 * 365.0);
}

TEST(LifetimeTest, CapAndEdgeCases) {
  atmosphere::LifetimeConfig config;
  config.max_days = 10.0;
  EXPECT_DOUBLE_EQ(atmosphere::decay_lifetime_days(900.0, 1e-4, config), 10.0);
  EXPECT_DOUBLE_EQ(atmosphere::decay_lifetime_days(100.0, 0.01), 0.0);
  EXPECT_THROW(static_cast<void>(atmosphere::decay_lifetime_days(550.0, 0.0)), ValidationError);
}

TEST(LifetimeTest, StormsShortenLifetime) {
  // A permanently stormy series vs quiet.
  const spaceweather::DstIndex stormy(
      make_datetime(2024, 5, 1), std::vector<double>(24 * 400, -300.0));
  atmosphere::LifetimeConfig config;
  config.dst = &stormy;
  config.start_jd = timeutil::to_julian(make_datetime(2024, 5, 1));
  const double with_storm = atmosphere::decay_lifetime_days(350.0, 0.02, config);
  const double quiet = atmosphere::decay_lifetime_days(350.0, 0.02);
  EXPECT_LT(with_storm, quiet);
}

// --------------------------- what-if scenarios ------------------------------

TEST(Feb2022Test, MostOfTheBatchIsLost) {
  const auto dst = spaceweather::DstGenerator(
                       spaceweather::DstGenerator::paper_window_2020_2024())
                       .generate();
  auto config = simulation::scenario::feb_2022(&dst);
  auto result = simulation::ConstellationSimulator(config).run();
  EXPECT_EQ(result.launched, 49);
  int staging_losses = 0;
  for (const auto& failure : result.failures) {
    if (failure.kind == simulation::FailureKind::kStagingReentry) ++staging_losses;
  }
  // Paper: 38 of 49 lost.  Accept the same regime.
  EXPECT_GE(staging_losses, 25);
  EXPECT_LE(staging_losses, 49);
  EXPECT_GE(result.reentered, 25);
}

TEST(CarringtonTest, WhatIfSeriesReachesCarringtonScale) {
  const auto dst = spaceweather::DstGenerator(
                       spaceweather::DstGenerator::carrington_what_if())
                       .generate();
  EXPECT_LT(dst.minimum(), -1500.0);
  EXPECT_GT(dst.minimum(), -1900.0);  // generator clamps at -1900
}

}  // namespace
}  // namespace cosmicdance
