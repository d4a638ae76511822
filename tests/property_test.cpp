// Cross-cutting property tests: randomized round trips and physical
// invariants that hold across whole input families, complementing the
// example-based suites.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "orbit/constants.hpp"
#include "orbit/elements.hpp"
#include "orbit/state.hpp"
#include "sgp4/sgp4.hpp"
#include "spaceweather/burton.hpp"
#include "spaceweather/storms.hpp"
#include "spaceweather/wdc.hpp"
#include "stats/descriptive.hpp"
#include "stats/ecdf.hpp"
#include "timeutil/datetime.hpp"
#include "tle/catalog.hpp"

namespace cosmicdance {
namespace {

// ---------------------- randomized TLE text round trips ---------------------

tle::Tle random_tle(Rng& rng) {
  tle::Tle t;
  t.catalog_number = static_cast<int>(rng.uniform_int(1, 99999));
  t.classification = 'U';
  t.international_designator = "20001A";
  t.epoch_jd = timeutil::to_julian(timeutil::make_datetime(2020, 1, 1)) +
               rng.uniform(0.0, 1500.0);
  t.inclination_deg = rng.uniform(0.0, 180.0);
  t.raan_deg = rng.uniform(0.0, 360.0);
  t.eccentricity = rng.uniform(0.0, 0.3);
  t.arg_perigee_deg = rng.uniform(0.0, 360.0);
  t.mean_anomaly_deg = rng.uniform(0.0, 360.0);
  t.mean_motion_revday = rng.uniform(1.0, 16.5);
  t.bstar = rng.uniform(-1e-3, 5e-3);
  t.mean_motion_dot = rng.uniform(-1e-4, 1e-4);
  t.mean_motion_ddot = rng.uniform(0.0, 1e-10);
  t.element_set_number = static_cast<int>(rng.uniform_int(0, 9999));
  t.rev_number = static_cast<int>(rng.uniform_int(0, 99999));
  return t;
}

class TleRoundTripProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TleRoundTripProperty, FormatParseIsLossless) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    const tle::Tle original = random_tle(rng);
    const tle::TleLines lines = tle::format_tle(original);
    ASSERT_EQ(lines.line1.size(), 69u);
    ASSERT_EQ(lines.line2.size(), 69u);
    const tle::Tle back = tle::parse_tle(lines.line1, lines.line2);
    EXPECT_EQ(back.catalog_number, original.catalog_number);
    EXPECT_NEAR(back.epoch_jd, original.epoch_jd, 1e-7);
    EXPECT_NEAR(back.inclination_deg, original.inclination_deg, 1e-4);
    EXPECT_NEAR(back.raan_deg, original.raan_deg, 1e-4);
    EXPECT_NEAR(back.eccentricity, original.eccentricity, 1e-7);
    EXPECT_NEAR(back.arg_perigee_deg, original.arg_perigee_deg, 1e-4);
    EXPECT_NEAR(back.mean_anomaly_deg, original.mean_anomaly_deg, 1e-4);
    EXPECT_NEAR(back.mean_motion_revday, original.mean_motion_revday, 1e-8);
    if (original.bstar != 0.0) {
      EXPECT_NEAR(back.bstar / original.bstar, 1.0, 1e-4);
    }
    // Second trip is bit-exact (format is a fixed point after one trip).
    const tle::TleLines again = tle::format_tle(back);
    EXPECT_EQ(again.line1, lines.line1);
    EXPECT_EQ(again.line2, lines.line2);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TleRoundTripProperty,
                         ::testing::Values(101u, 202u, 303u));

// --------------------------- WDC format properties --------------------------

class WdcRoundTripProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WdcRoundTripProperty, ArbitrarySeriesSurvive) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const int start_hour_of_day = static_cast<int>(rng.uniform_int(0, 23));
    const auto length = static_cast<std::size_t>(rng.uniform_int(1, 2000));
    std::vector<double> values;
    values.reserve(length);
    for (std::size_t i = 0; i < length; ++i) {
      values.push_back(std::floor(rng.uniform(-800.0, 60.0)));
    }
    const spaceweather::DstIndex original(
        timeutil::make_datetime(2022, static_cast<int>(rng.uniform_int(1, 12)),
                                static_cast<int>(rng.uniform_int(1, 28)),
                                start_hour_of_day),
        std::move(values));
    const spaceweather::DstIndex back =
        spaceweather::from_wdc(spaceweather::to_wdc(original));
    ASSERT_EQ(back.size(), original.size());
    ASSERT_EQ(back.start_hour(), original.start_hour());
    for (std::size_t i = 0; i < original.size(); ++i) {
      EXPECT_NEAR(back.values()[i], original.values()[i], 0.51);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WdcRoundTripProperty,
                         ::testing::Values(11u, 22u, 33u));

// ------------------------ storm detection invariants ------------------------

TEST(StormInvariantTest, EventHoursEqualThresholdHours) {
  Rng rng(77);
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i) values.push_back(rng.uniform(-120.0, 10.0));
  const spaceweather::DstIndex dst(timeutil::make_datetime(2021, 1, 1),
                                   std::move(values));
  const spaceweather::StormDetector detector;  // no merging, min 1 hour
  long event_hours = 0;
  for (const auto& event : detector.detect(dst)) {
    event_hours += event.duration_hours();
    // Events never overlap and every hour inside is at/below threshold...
    EXPECT_LE(event.peak_dst_nt, -50.0);
    EXPECT_GE(event.peak_hour, event.start_hour);
    EXPECT_LT(event.peak_hour, event.end_hour);
  }
  long threshold_hours = 0;
  for (const double v : dst.values()) {
    if (v <= -50.0) ++threshold_hours;
  }
  EXPECT_EQ(event_hours, threshold_hours);
}

TEST(StormInvariantTest, EventsAreDisjointAndOrdered) {
  Rng rng(78);
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i) values.push_back(rng.uniform(-120.0, 10.0));
  const spaceweather::DstIndex dst(timeutil::make_datetime(2021, 1, 1),
                                   std::move(values));
  const auto events = spaceweather::StormDetector().detect(dst);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].start_hour, events[i - 1].end_hour);
  }
}

// ----------------------------- Burton properties ----------------------------

TEST(BurtonPropertyTest, LinearInDriver) {
  // The ODE is linear: doubling Q doubles the response.
  Rng rng(5);
  std::vector<double> q(100);
  for (auto& v : q) v = rng.uniform(-50.0, 0.0);
  std::vector<double> q2 = q;
  for (auto& v : q2) v *= 2.0;
  const auto r1 = spaceweather::integrate_burton(q, 8.0);
  const auto r2 = spaceweather::integrate_burton(q2, 8.0);
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_NEAR(r2[i], 2.0 * r1[i], 1e-9);
  }
}

TEST(BurtonPropertyTest, ResponseBoundedByEquilibrium) {
  // With constant driver Q the response never overshoots Q*tau.
  const std::vector<double> q(200, -30.0);
  const double tau = 12.0;
  for (const double value : spaceweather::integrate_burton(q, tau)) {
    EXPECT_GE(value, -30.0 * tau - 1e-9);
    EXPECT_LE(value, 0.0);
  }
}

TEST(BurtonPropertyTest, LongerTauDeeperAndSlower) {
  const auto profile = spaceweather::storm_injection_profile(-200.0, 4.0, 8.0, 60);
  const auto fast = spaceweather::integrate_burton(profile, 8.0);
  const auto slow = spaceweather::integrate_burton(profile, 20.0);
  // Same peak target (profile built for tau=8) but the tau=20 run recovers
  // more slowly: larger magnitude at the end of the window.
  EXPECT_LT(slow.back(), fast.back());
}

// ------------------------ SGP4 vs two-body consistency ----------------------

class Sgp4TwoBodyProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Sgp4TwoBodyProperty, PeriodMatchesMeanMotion) {
  // Time between successive ascending-node crossings ~ the nodal period,
  // which must sit within ~1% of the Keplerian period for near-circular LEO.
  Rng rng(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    tle::Tle t;
    t.catalog_number = 45000;
    t.international_designator = "20001A";
    t.epoch_jd = timeutil::to_julian(timeutil::make_datetime(2023, 1, 1));
    t.inclination_deg = rng.uniform(30.0, 98.0);
    t.raan_deg = rng.uniform(0.0, 360.0);
    t.eccentricity = rng.uniform(1e-4, 2e-3);
    t.arg_perigee_deg = rng.uniform(0.0, 360.0);
    t.mean_anomaly_deg = rng.uniform(0.0, 360.0);
    t.mean_motion_revday = rng.uniform(12.0, 15.8);
    t.bstar = 0.0;
    const sgp4::Sgp4Propagator propagator(t);
    const double period = units::kMinutesPerDay / t.mean_motion_revday;

    // z crosses upward twice per revolution-pair; find two crossings.
    auto z_at = [&](double minutes) {
      return propagator.propagate_minutes(minutes).position_km[2];
    };
    auto find_upcross = [&](double from) {
      double previous = z_at(from);
      for (double m = from + 0.5; m < from + 2.5 * period; m += 0.5) {
        const double current = z_at(m);
        if (previous < 0.0 && current >= 0.0) {
          // refine by bisection
          double lo = m - 0.5;
          double hi = m;
          for (int i = 0; i < 30; ++i) {
            const double mid = (lo + hi) / 2.0;
            (z_at(mid) >= 0.0 ? hi : lo) = mid;
          }
          return (lo + hi) / 2.0;
        }
        previous = current;
      }
      return -1.0;
    };
    const double first = find_upcross(0.0);
    ASSERT_GT(first, -0.5);
    const double second = find_upcross(first + period * 0.5);
    ASSERT_GT(second, first);
    EXPECT_NEAR((second - first) / period, 1.0, 0.01)
        << "i=" << t.inclination_deg << " n=" << t.mean_motion_revday;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Sgp4TwoBodyProperty, ::testing::Values(1u, 9u));

TEST(Sgp4EnergyProperty, VisVivaHolds) {
  // Without drag, v^2 must satisfy the vis-viva relation for the orbit's
  // (slowly J2-varying) semi-major axis to within a fraction of a percent.
  tle::Tle t;
  t.catalog_number = 45000;
  t.international_designator = "20001A";
  t.epoch_jd = timeutil::to_julian(timeutil::make_datetime(2023, 1, 1));
  t.inclination_deg = 53.0;
  t.eccentricity = 0.001;
  t.mean_motion_revday = 15.06;
  t.bstar = 0.0;
  const sgp4::Sgp4Propagator propagator(t);
  const orbit::GravityModel g = orbit::wgs72();
  const double a = orbit::sma_from_mean_motion_revday(15.06);
  for (double m = 0.0; m < 500.0; m += 13.0) {
    const auto sv = propagator.propagate_minutes(m);
    const double r = orbit::norm(sv.position_km);
    const double v2 = orbit::dot(sv.velocity_kms, sv.velocity_kms);
    const double vis_viva = g.mu * (2.0 / r - 1.0 / a);
    EXPECT_NEAR(v2 / vis_viva, 1.0, 0.005) << m;
  }
}

// -------------------------- catalog merge properties ------------------------

TEST(CatalogPropertyTest, MergeIsIdempotentAndOrderIndependent) {
  Rng rng(404);
  std::vector<tle::Tle> records;
  for (int i = 0; i < 100; ++i) {
    tle::Tle t = random_tle(rng);
    t.catalog_number = 100 + i % 7;  // several satellites
    records.push_back(t);
  }
  tle::TleCatalog forward;
  for (const auto& r : records) forward.add(r);
  tle::TleCatalog reverse;
  for (auto it = records.rbegin(); it != records.rend(); ++it) reverse.add(*it);
  EXPECT_EQ(forward.record_count(), reverse.record_count());
  EXPECT_EQ(forward.to_text(), reverse.to_text());
  // Re-adding everything changes nothing.
  tle::TleCatalog again = forward;
  for (const auto& r : records) again.add(r);
  EXPECT_EQ(again.record_count(), forward.record_count());
}

// ------------------------------ ECDF properties -----------------------------

class EcdfProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EcdfProperty, QuantileAndCdfAreConsistent) {
  Rng rng(GetParam());
  std::vector<double> sample;
  for (int i = 0; i < 300; ++i) sample.push_back(rng.lognormal(0.0, 1.0));
  const stats::Ecdf ecdf(sample);
  for (double q = 0.05; q <= 0.95; q += 0.05) {
    const double x = ecdf.quantile(q);
    // F(quantile(q)) >= q (right-continuity) and not much larger.
    EXPECT_GE(ecdf(x) + 1e-12, q);
    EXPECT_LE(ecdf(x), q + 2.0 / 300.0 + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EcdfProperty, ::testing::Values(3u, 4u, 5u));

// ---------------------------- angle-wrap properties -------------------------

TEST(UnitsPropertyTest, WrapsAreIdempotentAndInRange) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    const double angle = rng.uniform(-100.0, 100.0);
    const double two_pi = units::wrap_two_pi(angle);
    EXPECT_GE(two_pi, 0.0);
    EXPECT_LT(two_pi, units::kTwoPi);
    EXPECT_NEAR(units::wrap_two_pi(two_pi), two_pi, 1e-12);
    const double pi = units::wrap_pi(angle);
    EXPECT_GT(pi, -units::kPi - 1e-12);
    EXPECT_LE(pi, units::kPi + 1e-12);
    // Both wraps preserve the angle modulo 2*pi.
    EXPECT_NEAR(std::remainder(two_pi - angle, units::kTwoPi), 0.0, 1e-9);
    EXPECT_NEAR(std::remainder(pi - angle, units::kTwoPi), 0.0, 1e-9);
  }
}

// ----------------------- calendar <-> Julian round trip ----------------------

TEST(JulianPropertyTest, HourlyGridRoundTrips1900To2100) {
  // Walk two centuries hour by hour (~1.76M samples) purely through the
  // Julian representation; every sample must come back to the same calendar
  // instant.  The grid crosses every month boundary, every year boundary and
  // the century leap-year exceptions (1900 is not a leap year, 2000 is).
  const double start_jd = timeutil::to_julian(timeutil::make_datetime(1900, 1, 1));
  const double end_jd = timeutil::to_julian(timeutil::make_datetime(2100, 1, 1));
  const long hours = std::lround((end_jd - start_jd) * 24.0);
  ASSERT_EQ(hours, 1753176);  // 200 years incl. 49 leap days, in hours

  timeutil::DateTime expected = timeutil::make_datetime(1900, 1, 1);
  long mismatches = 0;
  for (long h = 0; h <= hours; ++h) {
    const double jd = start_jd + static_cast<double>(h) / 24.0;
    const timeutil::DateTime round = timeutil::from_julian(timeutil::to_julian(expected));
    const timeutil::DateTime from_grid = timeutil::from_julian(jd);
    // Both the exact-value round trip and the grid arithmetic must land on
    // the same calendar hour (seconds may carry sub-microsecond noise).
    if (round.year != expected.year || round.month != expected.month ||
        round.day != expected.day || round.hour != expected.hour ||
        round.minute != expected.minute ||
        std::fabs(round.second - expected.second) > 1e-4 ||
        from_grid.year != expected.year || from_grid.month != expected.month ||
        from_grid.day != expected.day || from_grid.hour != expected.hour) {
      if (++mismatches <= 5) {
        ADD_FAILURE() << "hour " << h << ": expected "
                      << expected.to_string() << " got " << round.to_string()
                      << " / " << from_grid.to_string();
      }
    }
    expected = timeutil::add_hours(expected, 1.0);
  }
  EXPECT_EQ(mismatches, 0);

  // Spot-check the leap boundaries the paper's epochs straddle.
  for (const auto& [y, m, d] : {std::tuple{1900, 2, 28}, {1900, 3, 1},
                                {2000, 2, 29}, {2024, 2, 29}, {2099, 12, 31}}) {
    const timeutil::DateTime dt = timeutil::make_datetime(y, m, d, 23, 0);
    const timeutil::DateTime back = timeutil::from_julian(timeutil::to_julian(dt));
    EXPECT_EQ(back.year, y);
    EXPECT_EQ(back.month, m);
    EXPECT_EQ(back.day, d);
    EXPECT_EQ(back.hour, 23);
  }
  EXPECT_THROW(static_cast<void>(timeutil::make_datetime(1900, 2, 29)), ValidationError);
}

}  // namespace
}  // namespace cosmicdance
