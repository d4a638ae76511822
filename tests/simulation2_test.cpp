// Second-round simulation tests: lifecycle corners, station-keeping
// behaviour, manoeuvre statistics, deorbit end-of-life, tracking
// configuration sweeps, launch-plan geometry and edges, shared NORAD ids,
// and the ground truth pinned to the hour-major loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "simulation/constellation.hpp"
#include "simulation/launch_plan.hpp"
#include "simulation/scenario.hpp"
#include "simulation/tracking.hpp"
#include "spaceweather/generator.hpp"
#include "stats/descriptive.hpp"
#include "support/simulation_scenarios.hpp"

namespace cosmicdance::simulation {
namespace {

using timeutil::make_datetime;

ConstellationConfig quiet_fleet(int count, const timeutil::DateTime& start,
                                const timeutil::DateTime& end) {
  ConstellationConfig config;
  config.seed = 9;
  config.start = start;
  config.end = end;
  config.failures.enabled = false;
  config.record_truth = true;
  LaunchBatch batch;
  batch.time = start;
  batch.count = count;
  batch.prelaunched = true;
  config.launches.push_back(batch);
  return config;
}

TEST(LifecycleTest, DeorbitAtEndOfLife) {
  auto config = quiet_fleet(5, make_datetime(2023, 1, 1), make_datetime(2024, 6, 1));
  config.lifetime_years = 0.5;  // satellites retire mid-run
  auto result = ConstellationSimulator(config).run();
  // All five retire, descend at the controlled rate and reenter.
  EXPECT_EQ(result.reentered, 5);
  EXPECT_EQ(result.tracked_at_end, 0);
  for (const auto& [id, truth] : result.truth) {
    bool saw_deorbiting = false;
    for (const auto& sample : truth) {
      if (sample.mode == SatelliteMode::kDeorbiting) saw_deorbiting = true;
    }
    EXPECT_TRUE(saw_deorbiting) << id;
  }
}

TEST(LifecycleTest, DeorbitRateRespected) {
  auto config = quiet_fleet(1, make_datetime(2023, 1, 1), make_datetime(2024, 6, 1));
  config.lifetime_years = 0.25;
  config.deorbit_km_per_day = 2.0;
  auto result = ConstellationSimulator(config).run();
  const auto& truth = result.truth.begin()->second;
  // Find the descent slope between 500 and 300 km.
  double t500 = 0.0;
  double t300 = 0.0;
  for (const auto& sample : truth) {
    if (t500 == 0.0 && sample.altitude_km <= 500.0) t500 = sample.jd;
    if (t300 == 0.0 && sample.altitude_km <= 300.0) t300 = sample.jd;
  }
  ASSERT_GT(t500, 0.0);
  ASSERT_GT(t300, 0.0);
  // 200 km at ~2 km/day (plus growing drag assist) -> <= 100 days, >= 50.
  EXPECT_GT(t300 - t500, 50.0);
  EXPECT_LT(t300 - t500, 100.0);
}

TEST(StationKeepingTest, HoldsDeadband) {
  auto config = quiet_fleet(10, make_datetime(2023, 1, 1), make_datetime(2023, 12, 1));
  config.maneuver_probability_per_day = 0.0;  // isolate the controller
  auto result = ConstellationSimulator(config).run();
  for (const auto& [id, truth] : result.truth) {
    for (const auto& sample : truth) {
      EXPECT_NEAR(sample.altitude_km, 550.0, kDeadbandKm + 0.3) << id;
    }
  }
}

TEST(StationKeepingTest, ManeuverJitterVisibleButBounded) {
  auto config = quiet_fleet(20, make_datetime(2023, 1, 1), make_datetime(2023, 12, 1));
  config.maneuver_probability_per_day = 0.05;
  auto result = ConstellationSimulator(config).run();
  std::vector<double> altitudes;
  for (const auto& [id, truth] : result.truth) {
    for (const auto& sample : truth) altitudes.push_back(sample.altitude_km);
  }
  const auto s = stats::summarize(altitudes);
  EXPECT_GT(s.stddev, 0.1);  // manoeuvres visible
  EXPECT_LT(s.stddev, 2.0);  // but bounded
  EXPECT_GT(s.min, 544.0);
  EXPECT_LT(s.max, 554.0);
}

TEST(LaunchPlanTest, RaanSpreadCoversTheEquator) {
  const auto plan = starlink_like_plan(make_datetime(2020, 1, 1),
                                       make_datetime(2021, 1, 1), 14.0, 10);
  ASSERT_GE(plan.size(), 25u);
  // With the golden-angle stride, plane longitudes spread widely.
  std::set<int> sectors;
  for (const auto& batch : plan) {
    sectors.insert(static_cast<int>(batch.raan_deg / 45.0));
  }
  EXPECT_EQ(sectors.size(), 8u);
}

TEST(LaunchPlanTest, CatalogNumbersSequentialAcrossBatches) {
  ConstellationConfig config;
  config.seed = 3;
  config.start = make_datetime(2023, 1, 1);
  config.end = make_datetime(2023, 3, 1);
  config.failures.enabled = false;
  for (int b = 0; b < 3; ++b) {
    LaunchBatch batch;
    batch.time = timeutil::add_hours(config.start, b * 240.0);
    batch.count = 4;
    batch.prelaunched = true;
    config.launches.push_back(batch);
  }
  auto result = ConstellationSimulator(config).run();
  const auto sats = result.catalog.satellites();
  ASSERT_EQ(sats.size(), 12u);
  for (std::size_t i = 0; i < sats.size(); ++i) {
    EXPECT_EQ(sats[i], config.first_catalog_number + static_cast<int>(i));
  }
}

TEST(TrackingSweepTest, NoiseScalesAsConfigured) {
  const SatelliteState satellite = [] {
    SatelliteState s;
    s.catalog_number = 45001;
    s.international_designator = "20001A";
    s.mode = SatelliteMode::kOperational;
    s.altitude_km = 550.0;
    s.launch_jd = 2458800.0;
    return s;
  }();
  for (const double sigma : {0.02, 0.08, 0.3}) {
    TrackingConfig config;
    config.altitude_noise_km = sigma;
    config.gross_error_probability = 0.0;
    TrackingSimulator tracker(config, 21);
    std::vector<double> errors;
    for (int i = 0; i < 800; ++i) {
      errors.push_back(tracker.observe(satellite, 2460000.0 + i, 1.0, 0.0)
                           .altitude_km() -
                       550.0);
    }
    EXPECT_NEAR(stats::stddev(errors), sigma, sigma * 0.2) << sigma;
  }
}

TEST(TrackingSweepTest, RefreshBoundsRespectedAcrossConfigs) {
  for (const double sigma : {0.3, 0.8, 1.4}) {
    TrackingConfig config;
    config.refresh_lognormal_sigma = sigma;
    TrackingSimulator tracker(config, 5);
    double jd = 2460000.0;
    for (int i = 0; i < 2000; ++i) {
      const double next = tracker.next_observation_jd(jd);
      const double hours = (next - jd) * 24.0;
      EXPECT_GE(hours, kRefreshMinHours);
      EXPECT_LE(hours, kRefreshMaxHours);
      jd = next;
    }
  }
}

TEST(FailureModelTest, OnsetThresholdRespected) {
  // A storm peaking just above the onset threshold produces no upsets.
  spaceweather::DstGeneratorConfig dst_config;
  dst_config.start = make_datetime(2023, 1, 1);
  dst_config.hours = 24 * 60;
  dst_config.include_random_storms = false;
  dst_config.scripted_storms.push_back(
      {make_datetime(2023, 2, 1, 6), -60.0, 4.0, 2.0, 10.0});
  const auto dst = spaceweather::DstGenerator(dst_config).generate();

  auto config = quiet_fleet(300, make_datetime(2023, 1, 1), make_datetime(2023, 3, 1));
  config.dst = &dst;
  config.failures.enabled = true;
  config.failures.onset_nt = 70.0;
  auto result = ConstellationSimulator(config).run();
  EXPECT_TRUE(result.failures.empty());
}

TEST(FailureModelTest, PermanentFractionShapesOutcome) {
  spaceweather::DstGeneratorConfig dst_config;
  dst_config.start = make_datetime(2023, 1, 1);
  dst_config.hours = 24 * 90;
  dst_config.include_random_storms = false;
  dst_config.scripted_storms.push_back(
      {make_datetime(2023, 2, 1, 6), -300.0, 4.0, 8.0, 10.0});
  const auto dst = spaceweather::DstGenerator(dst_config).generate();

  auto run_with_fraction = [&](double fraction) {
    auto config = quiet_fleet(400, make_datetime(2023, 1, 1),
                              make_datetime(2023, 4, 1));
    config.dst = &dst;
    config.failures.enabled = true;
    config.failures.permanent_fraction = fraction;
    auto result = ConstellationSimulator(config).run();
    int permanent = 0;
    for (const auto& failure : result.failures) {
      if (failure.kind == FailureKind::kPermanentDecay) ++permanent;
    }
    return std::pair<int, int>(permanent, static_cast<int>(result.failures.size()));
  };

  const auto [none_permanent, total_a] = run_with_fraction(0.0);
  const auto [all_permanent, total_b] = run_with_fraction(1.0);
  EXPECT_EQ(none_permanent, 0);
  EXPECT_GT(total_a, 10);
  EXPECT_EQ(all_permanent, total_b);
}

TEST(ScenarioTest, PaperWindowScalesWithBatchSize) {
  const auto small = scenario::paper_window(nullptr, 2, 30.0);
  const auto large = scenario::paper_window(nullptr, 6, 30.0);
  int small_count = 0;
  int large_count = 0;
  for (const auto& batch : small.launches) small_count += batch.count;
  for (const auto& batch : large.launches) large_count += batch.count;
  EXPECT_EQ(large_count, 3 * small_count);
}

TEST(ScenarioTest, Feb2022UsesLowStaging) {
  const auto config = scenario::feb_2022(nullptr);
  ASSERT_EQ(config.launches.size(), 1u);
  EXPECT_EQ(config.launches[0].count, 49);
  EXPECT_NEAR(config.launches[0].satellite.staging_altitude_km, 210.0, 1.0);
  EXPECT_EQ(config.first_catalog_number, 51439);
}

// ---- launch edges, shared NORAD ids, designators ---------------------------

TEST(LaunchPlanTest, BatchesDueAtOrAfterTheEndNeverFly) {
  auto config = quiet_fleet(2, make_datetime(2023, 1, 1), make_datetime(2023, 2, 1));
  for (const auto& time : {make_datetime(2023, 2, 1), make_datetime(2023, 3, 1)}) {
    LaunchBatch late = config.launches.front();
    late.time = time;
    late.count = 5;
    config.launches.push_back(late);
  }
  const auto result = ConstellationSimulator(config).run();
  EXPECT_EQ(result.launched, 2);
  EXPECT_EQ(result.catalog.satellite_count(), 2u);
  EXPECT_EQ(result.truth.size(), 2u);
  EXPECT_EQ(result.tracked_at_end, 2);
}

TEST(LaunchPlanTest, BatchDueBetweenStepsStartsAtTheNextStep) {
  // Six-hour steps; the batch is due 7 h in, inside step 1 ([6 h, 12 h)).
  auto config = quiet_fleet(1, make_datetime(2023, 1, 1), make_datetime(2023, 1, 20));
  config.step_hours = 6.0;
  config.launches.front().time = make_datetime(2023, 1, 1, 7);
  // A forced failure in step 1 misses the satellite, which first steps in
  // step 2; one in step 2 strikes it at step 2's epoch.
  const int number = config.first_catalog_number;
  config.forced_failures.push_back(
      {number, make_datetime(2023, 1, 1, 8), FailureKind::kTemporaryOutage, 2.0});
  config.forced_failures.push_back(
      {number, make_datetime(2023, 1, 1, 14), FailureKind::kPermanentDecay, 0.0});
  const auto result = ConstellationSimulator(config).run();
  ASSERT_EQ(result.failures.size(), 1u);
  const double dt_days = config.step_hours / 24.0;
  double step2 = timeutil::to_julian(config.start);
  step2 += dt_days;
  step2 += dt_days;
  EXPECT_EQ(result.failures[0].jd, step2);
  EXPECT_EQ(result.failures[0].kind, FailureKind::kPermanentDecay);
  EXPECT_EQ(result.launched, 1);
}

/// `config` with a second, later batch of two whose pinned numbers start at
/// `second_first`.
ConstellationConfig two_pinned_batches(int second_first) {
  auto config = quiet_fleet(3, make_datetime(2023, 1, 1), make_datetime(2023, 3, 1));
  config.launches.front().first_catalog_number = 60000;
  LaunchBatch second = config.launches.front();
  second.time = make_datetime(2023, 1, 11);
  second.count = 2;
  second.first_catalog_number = second_first;
  config.launches.push_back(second);
  return config;
}

TEST(LaunchPlanTest, SharedNoradIdsJoinAsAddWouldInTheHourlyOrder) {
  // The second batch reuses 60001 and 60002.  Each satellite's records do
  // not depend on its number, so the same fleet with the second batch at
  // 61001.. gives every satellite's own history.
  const auto shared = ConstellationSimulator(two_pinned_batches(60001)).run();
  const auto apart = ConstellationSimulator(two_pinned_batches(61001)).run();

  // The reference: every record add()ed in (epoch, satellite) order — the
  // order a step-major pass over the fleet adds them in — under the shared
  // numbers.
  const std::vector<std::pair<int, int>> satellites = {
      {60000, 60000}, {60001, 60001}, {60002, 60002}, {61001, 60001}, {61002, 60002}};
  std::vector<std::tuple<double, std::size_t, tle::Tle>> records;
  std::map<int, std::vector<std::tuple<double, std::size_t, TruthSample>>> truths;
  for (std::size_t i = 0; i < satellites.size(); ++i) {
    const auto [own, as] = satellites[i];
    for (tle::Tle record : apart.catalog.history(own)) {
      record.catalog_number = as;
      records.emplace_back(record.epoch_jd, i, record);
    }
    for (const TruthSample& sample : apart.truth.at(own)) {
      truths[as].emplace_back(sample.jd, i, sample);
    }
  }
  const auto by_time = [](const auto& a, const auto& b) {
    return std::tie(std::get<0>(a), std::get<1>(a)) <
           std::tie(std::get<0>(b), std::get<1>(b));
  };
  std::sort(records.begin(), records.end(), by_time);
  tle::TleCatalog expected;
  std::size_t dropped = 0;
  for (const auto& entry : records) {
    if (!expected.add(std::get<2>(entry))) ++dropped;
  }
  EXPECT_GT(dropped, 0u) << "no two satellites shared an observation hour";
  EXPECT_EQ(shared.catalog.satellite_count(), 3u);
  EXPECT_EQ(shared.catalog.record_count(), expected.record_count());
  EXPECT_EQ(shared.catalog.to_text(), expected.to_text());

  ASSERT_EQ(shared.truth.size(), truths.size());
  for (auto& [number, samples] : truths) {
    std::sort(samples.begin(), samples.end(), by_time);
    const auto& joined = shared.truth.at(number);
    ASSERT_EQ(joined.size(), samples.size()) << number;
    for (std::size_t s = 0; s < samples.size(); ++s) {
      const TruthSample& want = std::get<2>(samples[s]);
      EXPECT_EQ(joined[s].jd, want.jd) << number << " sample " << s;
      EXPECT_EQ(joined[s].altitude_km, want.altitude_km) << number << " sample " << s;
    }
  }
  EXPECT_EQ(shared.launched, 5);
  EXPECT_EQ(shared.tracked_at_end, 5);
}

TEST(LaunchPlanTest, DesignatorsStayUniquePastPieceZ) {
  auto config = quiet_fleet(45, make_datetime(2023, 1, 1), make_datetime(2023, 1, 11));
  const auto result = ConstellationSimulator(config).run();
  std::set<std::string> designators;
  for (const int number : result.catalog.satellites()) {
    designators.insert(result.catalog.history(number).front().international_designator);
  }
  EXPECT_EQ(designators.size(), 45u);
  const auto designator = [&](int piece) {
    return result.catalog.history(config.first_catalog_number + piece)
        .front()
        .international_designator;
  };
  EXPECT_EQ(designator(0), "23001A");
  EXPECT_EQ(designator(25), "23001Z");
  EXPECT_EQ(designator(26), "23001AA");
  EXPECT_EQ(designator(27), "23001AB");
  EXPECT_EQ(designator(44), "23001AS");
}

// ---- the ground truth, pinned to the hour-major loop ------------------------

/// FNV-1a over 64-bit words.
class Fnv64 {
 public:
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Everything a run yields but the observed catalog.
struct GroundTruthDigest {
  std::uint64_t failures = 0;  ///< catalog number, jd bits, kind, in order
  std::uint64_t truth = 0;     ///< every sample's four fields, by catalog number
  std::size_t failure_count = 0;
  std::size_t truth_samples = 0;
  int launched = 0;
  int reentered = 0;
  int tracked_at_end = 0;
  bool operator==(const GroundTruthDigest&) const = default;
};

std::ostream& operator<<(std::ostream& out, const GroundTruthDigest& d) {
  return out << std::hex << "{0x" << d.failures << "ULL, 0x" << d.truth
             << "ULL, " << std::dec << d.failure_count << ", " << d.truth_samples
             << ", " << d.launched << ", " << d.reentered << ", "
             << d.tracked_at_end << "}";
}

GroundTruthDigest digest_of(const SimulationResult& result) {
  Fnv64 failures;
  for (const FailureRecord& failure : result.failures) {
    failures.add(static_cast<std::uint64_t>(failure.catalog_number));
    failures.add(failure.jd);
    failures.add(static_cast<std::uint64_t>(failure.kind));
  }
  Fnv64 truth;
  std::size_t samples = 0;
  for (const auto& [number, series] : result.truth) {
    truth.add(static_cast<std::uint64_t>(number));
    for (const TruthSample& sample : series) {
      truth.add(sample.jd);
      truth.add(sample.altitude_km);
      truth.add(static_cast<std::uint64_t>(sample.mode));
      truth.add(sample.density_ratio);
      ++samples;
    }
  }
  return {failures.value(), truth.value(), result.failures.size(), samples,
          result.launched, result.reentered, result.tracked_at_end};
}

// Recorded from the hour-major ConstellationSimulator::run that the
// per-satellite decomposition replaced, which drew every observation from
// one shared tracker stream.  Giving each satellite its own tracker stream
// changed the observed catalog and nothing else (DESIGN.md §20).
const std::map<std::string, GroundTruthDigest>& hour_major_ground_truth() {
  static const std::map<std::string, GroundTruthDigest> digests = {
      {"paper_window", {0xf00455fd83d68886ULL, 0xb9895d271fb585eeULL, 63, 41365, 54, 6, 48}},
      {"figure3", {0x5dafcbf67dcfb2c0ULL, 0x685bb90d54664415ULL, 3, 668, 3, 3, 0}},
      {"feb2022", {0x24fcb78081905693ULL, 0x67fc85596cfa6da9ULL, 39, 649, 49, 39, 10}},
      {"may2024", {0xf11f3371e99aa79eULL, 0x073b2da444b33364ULL, 1, 12300, 300, 0, 300}},
  };
  return digests;
}

TEST(GroundTruthTest, MatchesTheHourMajorLoopAtEveryThreadCount) {
  for (const auto& [name, config] : simulation_scenarios::small()) {
    const ConstellationSimulator simulator(config);
    for (const int threads : {1, 2, 3, 4, 8}) {
      EXPECT_EQ(digest_of(simulator.run(threads)),
                hour_major_ground_truth().at(name))
          << name << " at " << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace cosmicdance::simulation
