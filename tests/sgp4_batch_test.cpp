// BatchPropagator + SGP4 correctness regression suite.
//
// Covers the four DESIGN.md §16 contracts end to end:
//   - golden vectors: the committed CSV under tests/golden/ pins exact
//     states for a near-earth, a high-eccentricity, a synchronous (irez=1)
//     and a half-day resonant (irez=2) element set, anchored externally by
//     Vallado's published verification values for TLE 00005;
//   - determinism: batch output is bit-identical to the single-satellite
//     propagator, across thread counts, and under any epoch-grid ordering
//     (the resonance memo is exact, not approximate);
//   - thread safety: one shared deep-space propagator driven from many
//     threads matches the serial sweep (the TSan tier-1 target);
//   - bounded failure: the Kepler solve returns a defined status at its
//     iteration bound, and a decaying low-perigee TLE degrades to a defined
//     status instead of hanging or emitting garbage; inside its range the
//     solve satisfies Kepler's equation over a grid of (M, e).
//
// Regenerating the golden CSV after an *intentional* model change:
//   COSMICDANCE_REGEN_GOLDEN=1 ./sgp4_batch_test
// then commit the rewritten file with the change that motivated it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/units.hpp"
#include "io/csv.hpp"
#include "io/parse.hpp"
#include "sgp4/batch.hpp"
#include "sgp4/sgp4.hpp"
#include "support/golden_csv.hpp"
#include "timeutil/datetime.hpp"
#include "tle/tle.hpp"

#ifndef COSMICDANCE_GOLDEN_DIR
#error "build must define COSMICDANCE_GOLDEN_DIR"
#endif

namespace cosmicdance {
namespace {

// ---------------------------------------------------------------------------
// Shared element sets (the golden CSV generator mirrors these).

tle::Tle vallado00005_tle() {
  return tle::parse_tle(
      "1 00005U 58002B   00179.78495062  .00000023  00000-0  28098-4 0  4753",
      "2 00005  34.2682 348.7242 1859667 331.7664  19.3264 10.82419157413667");
}

tle::Tle iss_tle() {
  return tle::parse_tle(
      "1 25544U 98067A   08264.51782528 -.00002182  00000-0 -11606-4 0  2927",
      "2 25544  51.6416 247.4627 0006703 130.5360 325.0288 15.72125391563537");
}

tle::Tle geo_tle() {
  tle::Tle t;
  t.catalog_number = 70001;
  t.international_designator = "20010A";
  t.epoch_jd = timeutil::to_julian(timeutil::make_datetime(2023, 1, 1, 12));
  t.inclination_deg = 0.5;
  t.raan_deg = 95.0;
  t.eccentricity = 3.0e-4;
  t.arg_perigee_deg = 10.0;
  t.mean_anomaly_deg = 200.0;
  t.mean_motion_revday = 1.00273896;
  t.bstar = 0.0;
  return t;
}

tle::Tle molniya_tle() {
  tle::Tle t = geo_tle();
  t.catalog_number = 70002;
  t.international_designator = "20011A";
  t.inclination_deg = 63.4;
  t.raan_deg = 40.0;
  t.eccentricity = 0.72;
  t.arg_perigee_deg = 270.0;
  t.mean_anomaly_deg = 10.0;
  t.mean_motion_revday = 2.00570000;
  t.bstar = 1.0e-5;
  return t;
}

/// Deterministic mixed fleet covering near-earth, synchronous and half-day
/// rows (index-derived elements, no RNG — every run sees one dataset).
std::vector<tle::Tle> mixed_fleet(std::size_t rows) {
  std::vector<tle::Tle> fleet;
  fleet.reserve(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    tle::Tle t;
    const int kind = static_cast<int>(i % 5);
    if (kind == 3) {
      t = geo_tle();
    } else if (kind == 4) {
      t = molniya_tle();
    } else {
      t = iss_tle();
      t.inclination_deg = 45.0 + 5.0 * static_cast<double>(i % 7);
      t.mean_motion_revday = 14.5 + 0.05 * static_cast<double>(i % 16);
      t.eccentricity = 1.0e-4 + 3.0e-4 * static_cast<double>(i % 4);
    }
    t.catalog_number = static_cast<int>(80000 + i);
    t.raan_deg = 3.6 * static_cast<double>(i % 100);
    t.mean_anomaly_deg = 7.2 * static_cast<double>(i % 50);
    fleet.push_back(t);
  }
  return fleet;
}

/// 10 days at 4-hour cadence, in minutes — long enough that the resonance
/// integrator takes many 720-minute steps on the deep-space rows.
std::vector<double> test_grid() {
  std::vector<double> tsince;
  tsince.reserve(61);
  for (int i = 0; i <= 60; ++i) tsince.push_back(240.0 * i);
  return tsince;
}

bool bitwise_equal(const orbit::StateVector& a, const orbit::StateVector& b) {
  return a.position_km == b.position_km && a.velocity_kms == b.velocity_kms;
}

::testing::AssertionResult GridsIdentical(const sgp4::BatchResult& a,
                                          const sgp4::BatchResult& b) {
  if (a.rows != b.rows || a.epochs != b.epochs) {
    return ::testing::AssertionFailure() << "grid shapes differ";
  }
  for (std::size_t i = 0; i < a.statuses.size(); ++i) {
    if (a.statuses[i] != b.statuses[i]) {
      return ::testing::AssertionFailure()
             << "status differs at cell " << i << ": "
             << to_string(a.statuses[i]) << " vs " << to_string(b.statuses[i]);
    }
    if (!bitwise_equal(a.states[i], b.states[i])) {
      return ::testing::AssertionFailure()
             << "state differs at cell " << i << " (row " << i / a.epochs
             << ", epoch " << i % a.epochs << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

// ---------------------------------------------------------------------------
// Golden vectors.

struct GoldenCase {
  const char* id;
  tle::Tle tle;
};

std::vector<GoldenCase> golden_cases() {
  return {{"vallado00005", vallado00005_tle()},
          {"iss25544", iss_tle()},
          {"geo_sync", geo_tle()},
          {"molniya_12h", molniya_tle()}};
}

const std::vector<double>& golden_tsince() {
  static const std::vector<double> kTsince = {0.0,    120.0,  360.0, 720.0,
                                              1440.0, 2880.0, 4320.0};
  return kTsince;
}

std::string golden_path() {
  return std::string(COSMICDANCE_GOLDEN_DIR) + "/sgp4_states.csv";
}

bool regen_requested() {
  const char* env = std::getenv("COSMICDANCE_REGEN_GOLDEN");
  return env != nullptr && *env != '\0' && std::string(env) != "0";
}

std::vector<io::CsvRow> compute_golden_rows() {
  std::vector<io::CsvRow> rows;
  rows.push_back(
      {"case", "tsince_min", "x_km", "y_km", "z_km", "vx_kms", "vy_kms",
       "vz_kms"});
  char cell[64];
  for (const GoldenCase& c : golden_cases()) {
    const sgp4::Sgp4Propagator propagator(c.tle);
    for (const double tsince : golden_tsince()) {
      orbit::StateVector out;
      const sgp4::Sgp4Status status =
          propagator.try_propagate_minutes(tsince, out);
      EXPECT_EQ(status, sgp4::Sgp4Status::kOk) << c.id << " t=" << tsince;
      io::CsvRow row = {c.id};
      std::snprintf(cell, sizeof cell, "%.1f", tsince);
      row.emplace_back(cell);
      for (const double v : out.position_km) {
        std::snprintf(cell, sizeof cell, "%.9e", v);
        row.emplace_back(cell);
      }
      for (const double v : out.velocity_kms) {
        std::snprintf(cell, sizeof cell, "%.12e", v);
        row.emplace_back(cell);
      }
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

TEST(Sgp4GoldenTest, StatesMatchCommittedVectors) {
  if (regen_requested()) {
    io::write_csv_file(golden_path(), compute_golden_rows());
    GTEST_SKIP() << "regenerated " << golden_path();
  }
  const std::vector<io::CsvRow> golden = test_support::read_golden_csv(golden_path());
  ASSERT_EQ(golden.size(), 1 + golden_cases().size() * golden_tsince().size());

  std::size_t row_index = 1;
  for (const GoldenCase& c : golden_cases()) {
    const sgp4::Sgp4Propagator propagator(c.tle);
    for (const double tsince : golden_tsince()) {
      const io::CsvRow& row = golden[row_index++];
      ASSERT_EQ(row.size(), 8u);
      EXPECT_EQ(row[0], c.id);
      orbit::StateVector out;
      ASSERT_EQ(propagator.try_propagate_minutes(tsince, out),
                sgp4::Sgp4Status::kOk)
          << c.id << " t=" << tsince;
      for (int axis = 0; axis < 3; ++axis) {
        const auto expected_pos = io::parse_double(row[2 + axis]);
        const auto expected_vel = io::parse_double(row[5 + axis]);
        ASSERT_TRUE(expected_pos.has_value() && expected_vel.has_value());
        // The CSV stores 10/13 significant digits; compare to the print
        // precision, not the model's — this is a regression pin.
        EXPECT_NEAR(out.position_km[axis], *expected_pos,
                    1e-6 * std::max(1.0, std::fabs(*expected_pos)))
            << c.id << " t=" << tsince << " axis " << axis;
        EXPECT_NEAR(out.velocity_kms[axis], *expected_vel,
                    1e-9 * std::max(1.0, std::fabs(*expected_vel)))
            << c.id << " t=" << tsince << " axis " << axis;
      }
    }
  }
}

TEST(Sgp4GoldenTest, ValladoPublishedVectorsAnchor00005) {
  // External anchor (km-level): the AIAA 2006-6753 verification values for
  // TLE 00005, independent of anything this repo generated.
  struct Anchor {
    double tsince;
    orbit::Vec3 position_km;
    orbit::Vec3 velocity_kms;
  };
  const Anchor anchors[] = {
      {0.0,
       {7022.46529266, -1400.08296755, 0.03995155},
       {1.893841015, 6.405893759, 4.534807250}},
      {360.0,
       {-7154.03120202, -3783.17682504, -3536.19412294},
       {4.741887409, -4.151817765, -2.093935425}},
      {720.0,
       {-7134.59340119, 6531.68641334, 3260.27186483},
       {-4.113793027, -2.911922039, -2.557327851}},
      {1080.0,
       {5568.53901181, 4492.06992591, 3863.87641983},
       {-4.209106476, 5.159719888, 2.744852980}},
      {1440.0,
       {-938.55923943, -6268.18748831, -4294.02924751},
       {7.536105209, -0.427127707, 0.989878080}},
  };
  const sgp4::Sgp4Propagator propagator(vallado00005_tle());
  for (const Anchor& a : anchors) {
    orbit::StateVector out;
    ASSERT_EQ(propagator.try_propagate_minutes(a.tsince, out),
              sgp4::Sgp4Status::kOk);
    for (int axis = 0; axis < 3; ++axis) {
      EXPECT_NEAR(out.position_km[axis], a.position_km[axis], 1e-3)
          << "t=" << a.tsince << " axis " << axis;
      EXPECT_NEAR(out.velocity_kms[axis], a.velocity_kms[axis], 1e-6)
          << "t=" << a.tsince << " axis " << axis;
    }
  }
}

TEST(Sgp4GoldenTest, BatchMatchesGoldenCasesBitIdentical) {
  std::vector<tle::Tle> tles;
  for (const GoldenCase& c : golden_cases()) tles.push_back(c.tle);
  const sgp4::BatchPropagator batch = sgp4::BatchPropagator::from_tles(tles);
  ASSERT_EQ(batch.rows(), tles.size());
  ASSERT_TRUE(batch.init_failures().empty());

  const sgp4::BatchResult grid =
      batch.propagate_minutes(golden_tsince(), 1);
  for (std::size_t row = 0; row < tles.size(); ++row) {
    const sgp4::Sgp4Propagator single(tles[row]);
    for (std::size_t e = 0; e < golden_tsince().size(); ++e) {
      orbit::StateVector out;
      ASSERT_EQ(single.try_propagate_minutes(golden_tsince()[e], out),
                grid.status(row, e));
      EXPECT_TRUE(bitwise_equal(out, grid.state(row, e)))
          << "row " << row << " epoch " << e;
    }
  }
}

// ---------------------------------------------------------------------------
// Determinism contract.

TEST(BatchPropagatorTest, BitIdenticalAcrossThreadCounts) {
  const sgp4::BatchPropagator batch =
      sgp4::BatchPropagator::from_tles(mixed_fleet(48));
  const std::vector<double> grid = test_grid();
  const sgp4::BatchResult serial = batch.propagate_minutes(grid, 1);
  for (const int threads : {0, 2, 4, 8}) {
    EXPECT_TRUE(GridsIdentical(serial, batch.propagate_minutes(grid, threads)))
        << "threads=" << threads;
  }
}

TEST(BatchPropagatorTest, BitIdenticalUnderEpochReordering) {
  const sgp4::BatchPropagator batch =
      sgp4::BatchPropagator::from_tles(mixed_fleet(20));
  // Ascending grid spanning *negative* offsets too, so the shuffle makes
  // the resonance integrator cross t=0 repeatedly (the restart condition's
  // hard case).
  std::vector<double> sorted;
  for (int i = -30; i <= 30; ++i) sorted.push_back(480.0 * i);

  // Deterministic shuffle: stride through the indices with a step coprime
  // to the length (61), touching every element in a scrambled order.
  std::vector<std::size_t> order(sorted.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = (i * 37) % sorted.size();
  }
  std::vector<double> shuffled(sorted.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    shuffled[i] = sorted[order[i]];
  }

  const sgp4::BatchResult sorted_grid = batch.propagate_minutes(sorted, 1);
  const sgp4::BatchResult shuffled_grid = batch.propagate_minutes(shuffled, 1);
  for (std::size_t row = 0; row < batch.rows(); ++row) {
    for (std::size_t i = 0; i < order.size(); ++i) {
      EXPECT_EQ(sorted_grid.status(row, order[i]),
                shuffled_grid.status(row, i));
      EXPECT_TRUE(bitwise_equal(sorted_grid.state(row, order[i]),
                                shuffled_grid.state(row, i)))
          << "row " << row << " epoch " << sorted[order[i]];
    }
  }
}

TEST(BatchPropagatorTest, ResonanceMemoNeverChangesResults) {
  // One persistent ResonanceState across an out-of-order sweep must match
  // a cold state per call exactly (the memo's exactness contract).
  const sgp4::Sgp4Propagator propagator(molniya_tle());
  const double sweep[] = {720.0,  1440.0, 360.0,   -720.0, 2880.0,
                          -360.0, 4320.0, -1440.0, 120.0,  2880.0};
  sgp4::ResonanceState memo;
  for (const double tsince : sweep) {
    orbit::StateVector with_memo, cold;
    const sgp4::Sgp4Status a =
        propagator.try_propagate_minutes(tsince, with_memo, &memo);
    const sgp4::Sgp4Status b = propagator.try_propagate_minutes(tsince, cold);
    EXPECT_EQ(a, b);
    EXPECT_TRUE(bitwise_equal(with_memo, cold)) << "t=" << tsince;
  }
}

TEST(BatchPropagatorTest, AbsoluteEpochGridMatchesPerRowOffsets) {
  const std::vector<tle::Tle> fleet = mixed_fleet(10);
  const sgp4::BatchPropagator batch = sgp4::BatchPropagator::from_tles(fleet);
  const double start_jd = geo_tle().epoch_jd + 2.0;
  const std::vector<double> epochs_jd = {start_jd, start_jd + 0.5,
                                         start_jd + 1.0};
  const sgp4::BatchResult grid = batch.propagate_jd(epochs_jd, 1);
  ASSERT_EQ(grid.rows, batch.rows());
  for (std::size_t row = 0; row < batch.rows(); ++row) {
    for (std::size_t e = 0; e < epochs_jd.size(); ++e) {
      const double tsince =
          (epochs_jd[e] - batch.epoch_jd(row)) * units::kMinutesPerDay;
      orbit::StateVector out;
      ASSERT_EQ(batch.try_propagate_row(row, tsince, out),
                grid.status(row, e));
      EXPECT_TRUE(bitwise_equal(out, grid.state(row, e)));
    }
  }
}

TEST(BatchPropagatorTest, InitFailureIsRecordedAndSkipped) {
  tle::Tle sunk = iss_tle();  // perigee far below the surface at epoch
  sunk.catalog_number = 90001;
  sunk.mean_motion_revday = 17.5;
  sunk.eccentricity = 0.1;
  const std::vector<tle::Tle> tles = {iss_tle(), sunk, geo_tle()};
  const sgp4::BatchPropagator batch = sgp4::BatchPropagator::from_tles(tles);
  EXPECT_EQ(batch.rows(), 2u);
  ASSERT_EQ(batch.init_failures().size(), 1u);
  EXPECT_EQ(batch.init_failures()[0].catalog_number, 90001);
  EXPECT_FALSE(batch.init_failures()[0].message.empty());
  EXPECT_EQ(batch.catalog_number(0), iss_tle().catalog_number);
  EXPECT_EQ(batch.catalog_number(1), geo_tle().catalog_number);
}

// ---------------------------------------------------------------------------
// Thread safety of one shared propagator (the TSan tier-1 target).

TEST(Sgp4ThreadSafetyTest, SharedDeepSpacePropagatorAcrossThreads) {
  // Before the init/propagate split the deep-space resonance integrator
  // wrote its memo (atime/xli/xni) through a mutable member on every call,
  // so two threads sharing one propagator raced.  The kernel is now pure;
  // this drives one shared instance hard enough for TSan to notice any
  // regression, and checks the results against a serial sweep.
  const sgp4::Sgp4Propagator shared(molniya_tle());
  constexpr int kThreads = 4;
  constexpr int kStepsPerThread = 200;

  std::vector<std::vector<orbit::StateVector>> results(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&shared, &results, w] {
      results[w].resize(kStepsPerThread);
      for (int i = 0; i < kStepsPerThread; ++i) {
        // Interleaved, sign-alternating offsets: every thread repeatedly
        // resets and re-advances the resonance recurrence.
        const double tsince = (i % 2 == 0 ? 1.0 : -1.0) *
                              (17.0 * i + 11.0 * w + 1.0);
        ASSERT_EQ(shared.try_propagate_minutes(tsince, results[w][i]),
                  sgp4::Sgp4Status::kOk);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  for (int w = 0; w < kThreads; ++w) {
    for (int i = 0; i < kStepsPerThread; ++i) {
      const double tsince =
          (i % 2 == 0 ? 1.0 : -1.0) * (17.0 * i + 11.0 * w + 1.0);
      orbit::StateVector expected;
      ASSERT_EQ(shared.try_propagate_minutes(tsince, expected),
                sgp4::Sgp4Status::kOk);
      EXPECT_TRUE(bitwise_equal(results[w][i], expected))
          << "thread " << w << " step " << i;
    }
  }
}

TEST(Sgp4ThreadSafetyTest, BatchParallelMatchesSerialOnDeepSpaceFleet) {
  // All-resonant fleet so every parallel_for chunk runs the integrator.
  std::vector<tle::Tle> fleet;
  for (int i = 0; i < 24; ++i) {
    tle::Tle t = (i % 2 == 0) ? geo_tle() : molniya_tle();
    t.catalog_number = 85000 + i;
    t.raan_deg = 15.0 * i;
    fleet.push_back(t);
  }
  const sgp4::BatchPropagator batch = sgp4::BatchPropagator::from_tles(fleet);
  ASSERT_EQ(batch.deep_space_rows(), fleet.size());
  const std::vector<double> grid = test_grid();
  EXPECT_TRUE(
      GridsIdentical(batch.propagate_minutes(grid, 1),
                     batch.propagate_minutes(grid, 4)));
}

// ---------------------------------------------------------------------------
// Bounded failure modes.

TEST(Sgp4StatusTest, KeplerSolveReturnsDefinedStatusAtIterationBound) {
  // axnl > 1 puts Newton's update outside its convergence basin; the
  // reference implementation loops its 10 iterations and silently keeps the
  // unconverged iterate.  Ours reports it.
  double eo1 = 0.0, sineo1 = 0.0, coseo1 = 0.0;
  EXPECT_EQ(sgp4::detail::solve_kepler(0.1, 1.2, 0.0, eo1, sineo1, coseo1),
            sgp4::Sgp4Status::kKeplerNotConverged);

  // A well-behaved elliptical solve converges and reports kOk, with the
  // returned (sin, cos) pair consistent with the eccentric anomaly.
  EXPECT_EQ(sgp4::detail::solve_kepler(1.0, 0.3, 0.1, eo1, sineo1, coseo1),
            sgp4::Sgp4Status::kOk);
  EXPECT_NEAR(sineo1, std::sin(eo1), 1e-12);
  EXPECT_NEAR(coseo1, std::cos(eo1), 1e-12);
  // Kepler's equation u = E + aynl*cos(E) - axnl*sin(E) holds at the root.
  EXPECT_NEAR(eo1 + 0.1 * std::cos(eo1) - 0.3 * std::sin(eo1), 1.0, 1e-8);
}

// SGP4's Kepler's-equation form u = E + aynl*cos(E) - axnl*sin(E) is the
// classical M = E - e*sin(E) at axnl = e, aynl = 0: the propagator's solver
// must satisfy it over the whole elliptic range.

TEST(KeplerTest, CircularIsIdentity) {
  for (double m = 0.0; m < units::kTwoPi; m += 0.3) {
    double eo1 = 0.0, sineo1 = 0.0, coseo1 = 0.0;
    ASSERT_EQ(sgp4::detail::solve_kepler(m, 0.0, 0.0, eo1, sineo1, coseo1),
              sgp4::Sgp4Status::kOk);
    EXPECT_NEAR(eo1, m, 1e-12);
  }
}

TEST(KeplerTest, KnownSolution) {
  // Vallado example 2-1: M = 235.4 deg, e = 0.4 -> E = 220.512074 deg.
  double eo1 = 0.0, sineo1 = 0.0, coseo1 = 0.0;
  ASSERT_EQ(sgp4::detail::solve_kepler(units::deg2rad(235.4), 0.4, 0.0, eo1,
                                       sineo1, coseo1),
            sgp4::Sgp4Status::kOk);
  EXPECT_NEAR(units::rad2deg(eo1), 220.512074767522, 1e-6);
}

class KeplerSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(KeplerSweep, SatisfiesKeplersEquation) {
  const auto [m_deg, ecc] = GetParam();
  const double m = units::deg2rad(m_deg);
  double eo1 = 0.0, sineo1 = 0.0, coseo1 = 0.0;
  ASSERT_EQ(sgp4::detail::solve_kepler(m, ecc, 0.0, eo1, sineo1, coseo1),
            sgp4::Sgp4Status::kOk)
      << "M=" << m_deg << " e=" << ecc;
  EXPECT_NEAR(units::wrap_pi(eo1 - ecc * std::sin(eo1) - m), 0.0, 1e-9)
      << "M=" << m_deg << " e=" << ecc;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, KeplerSweep,
    ::testing::Combine(::testing::Values(0.0, 1.0, 45.0, 90.0, 179.0, 180.0,
                                         181.0, 270.0, 359.0),
                       ::testing::Values(0.0, 1e-4, 0.1, 0.5, 0.9, 0.99)));

TEST(Sgp4StatusTest, DecayingLowPerigeeTleFailsWithDefinedStatus) {
  // A heavily dragged low-perigee set: B* = 0.1 pulls the mean eccentricity
  // negative within hours.  Construction must succeed, t=0 must propagate,
  // and the failure must be a *defined* status (never a hang, never NaNs
  // passed through as kOk).
  tle::Tle decaying;
  decaying.catalog_number = 99001;
  decaying.international_designator = "23001A";
  decaying.epoch_jd = timeutil::to_julian(timeutil::make_datetime(2023, 1, 1));
  decaying.inclination_deg = 51.6;
  decaying.raan_deg = 40.0;
  decaying.eccentricity = 0.02;
  decaying.arg_perigee_deg = 30.0;
  decaying.mean_anomaly_deg = 60.0;
  decaying.mean_motion_revday = 16.2;
  decaying.bstar = 0.1;

  const sgp4::Sgp4Propagator propagator(decaying);
  orbit::StateVector out;
  EXPECT_EQ(propagator.try_propagate_minutes(0.0, out), sgp4::Sgp4Status::kOk);

  bool failed = false;
  for (double tsince = 60.0; tsince <= 20.0 * units::kMinutesPerDay;
       tsince += 60.0) {
    const sgp4::Sgp4Status status =
        propagator.try_propagate_minutes(tsince, out);
    if (status == sgp4::Sgp4Status::kOk) {
      EXPECT_FALSE(std::isnan(orbit::norm(out.position_km)));
      continue;
    }
    // First failure: must be one of the documented degradation statuses.
    EXPECT_TRUE(status == sgp4::Sgp4Status::kEccentricityOutOfRange ||
                status == sgp4::Sgp4Status::kDecayed ||
                status == sgp4::Sgp4Status::kKeplerNotConverged)
        << to_string(status);
    failed = true;
    break;
  }
  EXPECT_TRUE(failed) << "decaying TLE never reached a failure status";

  // The batch engine reports the same cells as errors instead of poisoning
  // neighbouring rows.
  const std::vector<tle::Tle> tles = {decaying, iss_tle()};
  const sgp4::BatchPropagator batch = sgp4::BatchPropagator::from_tles(tles);
  const std::vector<double> grid = {0.0, 2.0 * units::kMinutesPerDay};
  const sgp4::BatchResult result = batch.propagate_minutes(grid, 1);
  EXPECT_EQ(result.status(0, 0), sgp4::Sgp4Status::kOk);
  EXPECT_NE(result.status(0, 1), sgp4::Sgp4Status::kOk);
  EXPECT_EQ(result.state(0, 1).position_km, orbit::Vec3{});
  EXPECT_EQ(result.status(1, 0), sgp4::Sgp4Status::kOk);
  EXPECT_EQ(result.status(1, 1), sgp4::Sgp4Status::kOk);
  EXPECT_EQ(result.error_count(), 1u);
}

TEST(Sgp4StatusTest, StatusStringsAreDistinct) {
  const sgp4::Sgp4Status all[] = {
      sgp4::Sgp4Status::kOk,
      sgp4::Sgp4Status::kEccentricityOutOfRange,
      sgp4::Sgp4Status::kMeanMotionNonPositive,
      sgp4::Sgp4Status::kPerturbedEccentricityOutOfRange,
      sgp4::Sgp4Status::kSemiLatusRectumNegative,
      sgp4::Sgp4Status::kDecayed,
      sgp4::Sgp4Status::kKeplerNotConverged,
  };
  std::vector<std::string> names;
  for (const sgp4::Sgp4Status status : all) {
    names.push_back(to_string(status));
    EXPECT_FALSE(names.back().empty());
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());
}

}  // namespace
}  // namespace cosmicdance
