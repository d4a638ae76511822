// Tests for the second extension wave: ground tracks, bootstrap confidence
// intervals, and the station-keeping delta-v budget.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "atmosphere/stationkeeping_budget.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "sgp4/groundtrack.hpp"
#include "stats/bootstrap.hpp"
#include "stats/descriptive.hpp"
#include "timeutil/datetime.hpp"

namespace cosmicdance {
namespace {

using timeutil::make_datetime;

// ----------------------------- ground tracks --------------------------------

sgp4::Sgp4Propagator starlink_propagator(double inclination = 53.05) {
  tle::Tle t;
  t.catalog_number = 45000;
  t.international_designator = "20001A";
  t.epoch_jd = timeutil::to_julian(make_datetime(2023, 6, 1));
  t.inclination_deg = inclination;
  t.raan_deg = 150.0;
  t.eccentricity = 1e-4;
  t.arg_perigee_deg = 30.0;
  t.mean_anomaly_deg = 10.0;
  t.mean_motion_revday = 15.06;
  t.bstar = 2e-4;
  return sgp4::Sgp4Propagator(t);
}

TEST(GroundTrackTest, LatitudeBoundedByInclination) {
  const auto propagator = starlink_propagator();
  const auto track = sgp4::ground_track(propagator, propagator.epoch_jd(),
                                        2.0 * 96.0, 0.5);
  ASSERT_GT(track.size(), 300u);
  double max_lat = 0.0;
  for (const auto& point : track) {
    max_lat = std::max(max_lat, std::fabs(point.latitude_deg));
    EXPECT_GE(point.longitude_deg, -180.0);
    EXPECT_LT(point.longitude_deg, 180.0);
    EXPECT_NEAR(point.altitude_km, 550.0, 25.0);
  }
  // The track reaches (almost) the inclination and never exceeds it much.
  EXPECT_GT(max_lat, 50.0);
  EXPECT_LT(max_lat, 54.0);
}

TEST(GroundTrackTest, CoversBothHemispheres) {
  const auto propagator = starlink_propagator();
  const auto track =
      sgp4::ground_track(propagator, propagator.epoch_jd(), 96.0, 1.0);
  double min_lat = 90.0;
  double max_lat = -90.0;
  for (const auto& point : track) {
    min_lat = std::min(min_lat, point.latitude_deg);
    max_lat = std::max(max_lat, point.latitude_deg);
  }
  EXPECT_LT(min_lat, -45.0);
  EXPECT_GT(max_lat, 45.0);
}

TEST(GroundTrackTest, FractionAboveLatitude) {
  const auto propagator = starlink_propagator();
  const auto track = sgp4::ground_track(propagator, propagator.epoch_jd(),
                                        10.0 * 96.0, 1.0);
  const auto fraction_above = [&](double latitude_deg) {
    const auto above = std::count_if(
        track.begin(), track.end(), [&](const sgp4::GroundPoint& point) {
          return std::fabs(point.latitude_deg) >= latitude_deg;
        });
    return static_cast<double>(above) / static_cast<double>(track.size());
  };
  const double above0 = fraction_above(0.0);
  const double above40 = fraction_above(40.0);
  const double above60 = fraction_above(60.0);
  EXPECT_DOUBLE_EQ(above0, 1.0);
  // Dwell concentrates toward the turning latitude: a 53-deg orbit spends
  // a large share above 40 degrees...
  EXPECT_GT(above40, 0.25);
  // ...and none above 60.
  EXPECT_DOUBLE_EQ(above60, 0.0);
}

TEST(GroundTrackTest, Validation) {
  const auto propagator = starlink_propagator();
  EXPECT_THROW(sgp4::ground_track(propagator, propagator.epoch_jd(), 0.0),
               ValidationError);
  EXPECT_THROW(sgp4::ground_track(propagator, propagator.epoch_jd(), 10.0, 0.0),
               ValidationError);
}

// ------------------------------- bootstrap ----------------------------------

TEST(BootstrapTest, DeterministicAndOrdered) {
  Rng rng(1);
  std::vector<double> sample;
  for (int i = 0; i < 200; ++i) sample.push_back(rng.normal(10.0, 2.0));
  const auto a = stats::bootstrap_median(sample);
  const auto b = stats::bootstrap_median(sample);
  EXPECT_DOUBLE_EQ(a.lo, b.lo);
  EXPECT_DOUBLE_EQ(a.hi, b.hi);
  EXPECT_LE(a.lo, a.point);
  EXPECT_LE(a.point, a.hi);
  EXPECT_NEAR(a.point, 10.0, 0.5);
}

TEST(BootstrapTest, WiderForSmallerSamples) {
  Rng rng(2);
  std::vector<double> big;
  for (int i = 0; i < 500; ++i) big.push_back(rng.normal(0.0, 1.0));
  const std::vector<double> small(big.begin(), big.begin() + 25);
  const auto wide = stats::bootstrap_median(small);
  const auto narrow = stats::bootstrap_median(big);
  EXPECT_GT(wide.hi - wide.lo, narrow.hi - narrow.lo);
}

TEST(BootstrapTest, CoversTrueMedianUsually) {
  // 40 independent draws of n=60 normals: the 95% CI should cover the true
  // median in the vast majority of trials.
  Rng rng(3);
  int covered = 0;
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<double> sample;
    for (int i = 0; i < 60; ++i) sample.push_back(rng.normal(5.0, 1.0));
    const auto ci =
        stats::bootstrap_median(sample, 0.95, 400, 1000 + trial);
    if (ci.lo <= 5.0 && 5.0 <= ci.hi) ++covered;
  }
  EXPECT_GE(covered, 33);  // ~95% nominal; generous slack for 40 trials
}

TEST(BootstrapTest, Validation) {
  const std::vector<double> empty;
  const std::vector<double> one{1.0};
  EXPECT_THROW(static_cast<void>(stats::bootstrap_median(empty)), ValidationError);
  EXPECT_THROW(static_cast<void>(stats::bootstrap_percentile(one, 50.0, 1.5)), ValidationError);
  EXPECT_THROW(static_cast<void>(stats::bootstrap_percentile(one, 50.0, 0.95, 5)), ValidationError);
}

// ----------------------- station-keeping delta-v ----------------------------

TEST(BudgetTest, QuietYearRealistic) {
  // Quiet drag make-up at 550 km, knife-edge: centimetres to a few m/s per
  // year — consistent with ion-thruster budgets.
  const double jd = timeutil::to_julian(make_datetime(2023, 1, 1));
  const double dv =
      atmosphere::stationkeeping_delta_v_ms(550.0, 0.004, jd, 365.0);
  EXPECT_GT(dv, 0.01);
  EXPECT_LT(dv, 10.0);
}

TEST(BudgetTest, ScalesWithBallisticAndDuration) {
  const double jd = timeutil::to_julian(make_datetime(2023, 1, 1));
  const double base =
      atmosphere::stationkeeping_delta_v_ms(550.0, 0.004, jd, 30.0);
  EXPECT_NEAR(atmosphere::stationkeeping_delta_v_ms(550.0, 0.008, jd, 30.0),
              2.0 * base, 1e-9);
  EXPECT_NEAR(atmosphere::stationkeeping_delta_v_ms(550.0, 0.004, jd, 60.0),
              2.0 * base, 1e-6);
}

TEST(BudgetTest, StormWeekCostsMore) {
  const spaceweather::DstIndex stormy(
      make_datetime(2024, 5, 10), std::vector<double>(24 * 7, -400.0));
  const double jd = timeutil::to_julian(make_datetime(2024, 5, 10));
  const double quiet =
      atmosphere::stationkeeping_delta_v_ms(550.0, 0.004, jd, 7.0);
  const double storm =
      atmosphere::stationkeeping_delta_v_ms(550.0, 0.004, jd, 7.0, &stormy);
  // ~5x density -> ~5x delta-v.
  EXPECT_NEAR(storm / quiet, 5.0, 0.6);
}

TEST(BudgetTest, Validation) {
  const double jd = timeutil::to_julian(make_datetime(2023, 1, 1));
  EXPECT_THROW(static_cast<void>(atmosphere::stationkeeping_delta_v_ms(550.0, 0.0, jd, 1.0)),
               ValidationError);
  EXPECT_THROW(static_cast<void>(atmosphere::stationkeeping_delta_v_ms(550.0, 0.004, jd, -1.0)),
               ValidationError);
  EXPECT_THROW(static_cast<void>(
      atmosphere::stationkeeping_delta_v_ms(550.0, 0.004, jd, 1.0, nullptr, 0.0)),
      ValidationError);
}

}  // namespace
}  // namespace cosmicdance
