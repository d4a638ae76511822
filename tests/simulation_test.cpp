#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "simulation/constellation.hpp"
#include "simulation/launch_plan.hpp"
#include "simulation/satellite.hpp"
#include "simulation/scenario.hpp"
#include "simulation/tracking.hpp"
#include "spaceweather/generator.hpp"
#include "stats/descriptive.hpp"

namespace cosmicdance::simulation {
namespace {

using timeutil::make_datetime;

TEST(SatelliteTest, ModeNames) {
  EXPECT_EQ(to_string(SatelliteMode::kStaging), "staging");
  EXPECT_EQ(to_string(SatelliteMode::kReentered), "reentered");
}

TEST(SatelliteTest, BallisticByMode) {
  SatelliteState satellite;
  satellite.mode = SatelliteMode::kOperational;
  EXPECT_DOUBLE_EQ(satellite.ballistic_m2_kg(), kBallisticOperational);
  satellite.mode = SatelliteMode::kOutage;
  EXPECT_DOUBLE_EQ(satellite.ballistic_m2_kg(),
                   satellite.config.ballistic_uncontrolled);
  satellite.mode = SatelliteMode::kStaging;
  EXPECT_DOUBLE_EQ(satellite.ballistic_m2_kg(), kBallisticStaging);
}

TEST(SatelliteTest, J2Rates) {
  // Starlink shell: RAAN regresses ~ -4.6 deg/day; argp advances.
  EXPECT_NEAR(J2Drift(53.0).at(550.0).raan_deg_per_day, -4.6, 0.4);
  EXPECT_GT(J2Drift(53.0).at(550.0).argp_deg_per_day, 2.0);
  // Retrograde orbit: RAAN advances.
  EXPECT_GT(J2Drift(97.6).at(550.0).raan_deg_per_day, 0.0);
  // Polar: no RAAN drift.
  EXPECT_NEAR(J2Drift(90.0).at(550.0).raan_deg_per_day, 0.0, 1e-9);
}

TEST(LaunchPlanTest, CadenceAndCount) {
  const auto plan = starlink_like_plan(make_datetime(2020, 1, 1),
                                       make_datetime(2020, 3, 1), 10.0, 20);
  ASSERT_GE(plan.size(), 6u);
  EXPECT_EQ(plan.front().count, 20);
  EXPECT_NEAR(timeutil::hours_between(plan[0].time, plan[1].time), 240.0, 1e-6);
  // Planes spread in RAAN.
  EXPECT_NE(plan[0].raan_deg, plan[1].raan_deg);
}

TEST(LaunchPlanTest, Validation) {
  EXPECT_THROW(starlink_like_plan(make_datetime(2020, 1, 1),
                                  make_datetime(2020, 2, 1), 0.0, 10),
               ValidationError);
  EXPECT_THROW(starlink_like_plan(make_datetime(2020, 1, 1),
                                  make_datetime(2020, 2, 1), 10.0, 0),
               ValidationError);
  EXPECT_THROW(starlink_like_plan(make_datetime(2020, 2, 1),
                                  make_datetime(2020, 1, 1), 10.0, 10),
               ValidationError);
  // A NaN cadence, and one too fine to count its batches, throw before the
  // plan reserves its batches.
  for (const double cadence : {std::nan(""), 1e-300}) {
    EXPECT_THROW(starlink_like_plan(make_datetime(2020, 1, 1),
                                    make_datetime(2020, 2, 1), cadence, 10),
                 ValidationError);
  }
}

TEST(TrackingTest, RefreshIntervalsMatchPaperStatistics) {
  TrackingSimulator tracker({}, 42);
  std::vector<double> intervals;
  double jd = 2460000.0;
  for (int i = 0; i < 5000; ++i) {
    const double next = tracker.next_observation_jd(jd);
    intervals.push_back((next - jd) * 24.0);
    jd = next;
  }
  const auto s = stats::summarize(intervals);
  // Paper: between <1 h and 154 h, mean ~12 h.
  EXPECT_GE(s.min, 0.5);
  EXPECT_LE(s.max, 154.0);
  EXPECT_NEAR(s.mean, 12.0, 2.5);
}

SatelliteState operational_state() {
  SatelliteState satellite;
  satellite.catalog_number = 45001;
  satellite.international_designator = "20001A";
  satellite.mode = SatelliteMode::kOperational;
  satellite.altitude_km = 550.0;
  satellite.raan_deg = 123.0;
  satellite.arg_perigee_deg = 45.0;
  satellite.mean_anomaly_deg = 10.0;
  satellite.launch_jd = 2458800.0;
  return satellite;
}

TEST(TrackingTest, ObservationNearTruth) {
  TrackingConfig config;
  config.gross_error_probability = 0.0;
  TrackingSimulator tracker(config, 7);
  const SatelliteState satellite = operational_state();
  std::vector<double> altitude_errors;
  for (int i = 0; i < 500; ++i) {
    const tle::Tle obs = tracker.observe(satellite, 2460000.0 + i, 1.0, -0.01);
    altitude_errors.push_back(obs.altitude_km() - satellite.altitude_km);
    EXPECT_EQ(obs.catalog_number, 45001);
    EXPECT_NEAR(obs.inclination_deg, satellite.config.inclination_deg, 0.02);
  }
  EXPECT_NEAR(stats::mean(altitude_errors), 0.0, 0.01);
  EXPECT_NEAR(stats::stddev(altitude_errors), config.altitude_noise_km, 0.01);
}

TEST(TrackingTest, GrossErrorsProduceLongTail) {
  TrackingConfig config;
  config.gross_error_probability = 0.05;  // inflated for the test
  TrackingSimulator tracker(config, 11);
  const SatelliteState satellite = operational_state();
  int gross = 0;
  double worst = 0.0;
  for (int i = 0; i < 4000; ++i) {
    const double alt = tracker.observe(satellite, 2460000.0 + i, 1.0, 0.0).altitude_km();
    if (alt > 650.0) {
      ++gross;
      worst = std::max(worst, alt);
    }
  }
  EXPECT_NEAR(gross / 4000.0, 0.05, 0.02);
  EXPECT_GT(worst, 5000.0);  // the Fig 10a tail reaches tens of thousands km
}

TEST(TrackingTest, BstarReflectsDensityRatio) {
  TrackingConfig config;
  config.bstar_lognormal_sigma = 0.0;
  config.gross_error_probability = 0.0;
  TrackingSimulator tracker(config, 13);
  const SatelliteState satellite = operational_state();
  const double quiet = tracker.observe(satellite, 2460000.0, 1.0, 0.0).bstar;
  const double storm = tracker.observe(satellite, 2460000.1, 5.0, 0.0).bstar;
  EXPECT_NEAR(storm / quiet, 5.0, 1e-9);
}

TEST(TrackingTest, EmittedTleSerializes) {
  TrackingSimulator tracker({}, 17);
  const SatelliteState satellite = operational_state();
  const tle::Tle obs = tracker.observe(satellite, 2460000.0, 1.5, -0.05);
  const tle::TleLines lines = tle::format_tle(obs);
  const tle::Tle back = tle::parse_tle(lines.line1, lines.line2);
  EXPECT_EQ(back.catalog_number, obs.catalog_number);
  EXPECT_NEAR(back.mean_motion_revday, obs.mean_motion_revday, 1e-7);
}

ConstellationConfig small_config(const spaceweather::DstIndex* dst) {
  ConstellationConfig config;
  config.seed = 5;
  config.start = make_datetime(2023, 1, 1);
  config.end = make_datetime(2023, 7, 1);
  config.dst = dst;
  LaunchBatch batch;
  batch.time = config.start;
  batch.count = 30;
  batch.prelaunched = true;
  config.launches.push_back(batch);
  return config;
}

TEST(ConstellationTest, QuietRunKeepsFleetStable) {
  ConstellationConfig config = small_config(nullptr);
  config.failures.enabled = false;
  SimulationResult result = ConstellationSimulator(config).run();
  EXPECT_EQ(result.launched, 30);
  EXPECT_EQ(result.reentered, 0);
  EXPECT_EQ(result.tracked_at_end, 30);
  EXPECT_TRUE(result.failures.empty());
  // Every satellite stays near the shell.
  for (const int id : result.catalog.satellites()) {
    for (const tle::Tle& tle : result.catalog.history(id)) {
      if (tle.altitude_km() < 650.0) {  // skip gross tracking errors
        EXPECT_NEAR(tle.altitude_km(), 550.0, 6.0);
      }
    }
  }
}

TEST(ConstellationTest, DeterministicForSeed) {
  const ConstellationConfig config = small_config(nullptr);
  SimulationResult a = ConstellationSimulator(config).run();
  SimulationResult b = ConstellationSimulator(config).run();
  EXPECT_EQ(a.catalog.record_count(), b.catalog.record_count());
  EXPECT_EQ(a.catalog.to_text(), b.catalog.to_text());
}

TEST(ConstellationTest, LifecycleReachesOperationalShell) {
  ConstellationConfig config;
  config.seed = 6;
  config.start = make_datetime(2023, 1, 1);
  config.end = make_datetime(2023, 12, 1);
  config.failures.enabled = false;
  config.record_truth = true;
  LaunchBatch batch;
  batch.time = config.start;
  batch.count = 5;
  batch.staging_days = 30.0;
  config.launches.push_back(batch);
  SimulationResult result = ConstellationSimulator(config).run();
  ASSERT_EQ(result.truth.size(), 5u);
  for (const auto& [id, samples] : result.truth) {
    EXPECT_NEAR(samples.front().altitude_km, 350.0, 10.0);
    EXPECT_NEAR(samples.back().altitude_km, 550.0, 3.0);
    EXPECT_EQ(samples.back().mode, SatelliteMode::kOperational);
  }
}

TEST(ConstellationTest, ForcedPermanentDecayReachesReentry) {
  ConstellationConfig config = small_config(nullptr);
  config.end = make_datetime(2024, 6, 1);  // long enough to spiral in
  config.failures.enabled = false;
  config.record_truth = true;
  config.forced_failures.push_back(
      {config.first_catalog_number, make_datetime(2023, 2, 1),
       FailureKind::kPermanentDecay, 0.0});
  SimulationResult result = ConstellationSimulator(config).run();
  EXPECT_EQ(result.reentered, 1);
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures[0].catalog_number, config.first_catalog_number);
  // The doomed satellite's truth altitude decreases monotonically-ish.
  const auto& truth = result.truth.at(config.first_catalog_number);
  EXPECT_LT(truth.back().altitude_km, 360.0);
}

TEST(ConstellationTest, ForcedOutageRecovers) {
  ConstellationConfig config = small_config(nullptr);
  config.failures.enabled = false;
  config.failures.retarget_probability = 0.0;
  config.record_truth = true;
  config.forced_failures.push_back(
      {config.first_catalog_number + 1, make_datetime(2023, 2, 1),
       FailureKind::kTemporaryOutage, 20.0});
  SimulationResult result = ConstellationSimulator(config).run();
  EXPECT_EQ(result.reentered, 0);
  const auto& truth = result.truth.at(config.first_catalog_number + 1);
  double min_altitude = 1000.0;
  for (const TruthSample& s : truth) min_altitude = std::min(min_altitude, s.altitude_km);
  EXPECT_LT(min_altitude, 545.0);                       // dipped during outage
  EXPECT_NEAR(truth.back().altitude_km, 550.0, 3.0);    // recovered
}

TEST(ConstellationTest, StormDrivesUpsetsQuietDoesNot) {
  // A scripted deep storm against the same fleet: failures only with storm.
  spaceweather::DstGeneratorConfig dst_config;
  dst_config.start = make_datetime(2023, 1, 1);
  dst_config.hours = 24 * 180;
  dst_config.include_random_storms = false;
  dst_config.scripted_storms.push_back(
      {make_datetime(2023, 3, 1, 6), -220.0, 4.0, 3.0, 10.0});
  const spaceweather::DstIndex dst =
      spaceweather::DstGenerator(dst_config).generate();

  ConstellationConfig stormy = small_config(&dst);
  stormy.launches[0].count = 200;
  SimulationResult with_storm = ConstellationSimulator(stormy).run();
  EXPECT_GT(with_storm.failures.size(), 0u);
  for (const FailureRecord& f : with_storm.failures) {
    // Every upset happens during/after the storm onset, never before.
    EXPECT_GE(f.jd, timeutil::to_julian(make_datetime(2023, 3, 1)));
  }

  ConstellationConfig calm = small_config(nullptr);
  calm.launches[0].count = 200;
  EXPECT_TRUE(ConstellationSimulator(calm).run().failures.empty());
}

TEST(ConstellationTest, ProactiveResponseSuppressesUpsets) {
  spaceweather::DstGeneratorConfig dst_config;
  dst_config.start = make_datetime(2023, 1, 1);
  dst_config.hours = 24 * 90;
  dst_config.include_random_storms = false;
  dst_config.scripted_storms.push_back(
      {make_datetime(2023, 2, 1, 6), -400.0, 4.0, 6.0, 10.0});
  const spaceweather::DstIndex dst =
      spaceweather::DstGenerator(dst_config).generate();

  ConstellationConfig exposed = small_config(&dst);
  exposed.launches[0].count = 400;
  const auto unprotected = ConstellationSimulator(exposed).run().failures.size();

  ConstellationConfig protected_config = small_config(&dst);
  protected_config.launches[0].count = 400;
  protected_config.failures.proactive_response = true;
  const auto mitigated =
      ConstellationSimulator(protected_config).run().failures.size();
  EXPECT_LT(static_cast<double>(mitigated),
            0.5 * static_cast<double>(unprotected) + 2.0);
}

TEST(ConstellationTest, RejectsBadConfig) {
  ConstellationConfig config;
  config.step_hours = 0.0;
  EXPECT_THROW(ConstellationSimulator{config}, ValidationError);
  config = ConstellationConfig{};
  config.start = make_datetime(2024, 1, 1);
  config.end = make_datetime(2023, 1, 1);
  EXPECT_THROW(ConstellationSimulator{config}, ValidationError);
}

TEST(ScenarioTest, Figure3PinsCatalogNumbers) {
  const auto config = scenario::figure3(nullptr);
  SimulationResult result = ConstellationSimulator(config).run();
  const auto sats = result.catalog.satellites();
  EXPECT_EQ(sats, (std::vector<int>{44943, 45400, 45766}));
  EXPECT_EQ(result.failures.size(), 3u);
}

TEST(ScenarioTest, LaunchL1FollowsPaperTimeline) {
  const auto config = scenario::launch_l1(nullptr);
  SimulationResult result = ConstellationSimulator(config).run();
  EXPECT_EQ(result.launched, 43);
  EXPECT_EQ(result.catalog.satellites().front(), 44713);
  // Staging at ~360 km early, operational 550 km by end (Fig 9).
  const auto& truth = result.truth.at(44713);
  EXPECT_NEAR(truth.front().altitude_km, 360.0, 10.0);
  EXPECT_NEAR(truth.back().altitude_km, 550.0, 3.0);
}

TEST(ScenarioTest, May2024FleetSplitAcrossShells) {
  const auto config = scenario::may_2024(nullptr, 300);
  ASSERT_EQ(config.launches.size(), 3u);
  EXPECT_TRUE(config.failures.proactive_response);
  SimulationResult result = ConstellationSimulator(config).run();
  EXPECT_EQ(result.launched, 300);
  EXPECT_EQ(result.tracked_at_end, 300);
}

}  // namespace
}  // namespace cosmicdance::simulation
