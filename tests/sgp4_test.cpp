#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"
#include "orbit/elements.hpp"
#include "orbit/state.hpp"
#include "sgp4/sgp4.hpp"
#include "timeutil/datetime.hpp"
#include "tle/tle.hpp"

namespace cosmicdance::sgp4 {
namespace {

using orbit::norm;

/// Specific angular momentum h = r x v of a state: its direction fixes the
/// orbit plane's inclination and node.
orbit::Vec3 angular_momentum(const orbit::StateVector& sv) {
  const orbit::Vec3& r = sv.position_km;
  const orbit::Vec3& v = sv.velocity_kms;
  return {r[1] * v[2] - r[2] * v[1], r[2] * v[0] - r[0] * v[2],
          r[0] * v[1] - r[1] * v[0]};
}

tle::Tle starlink_like(double mean_motion = 15.06, double inclination = 53.05,
                       double bstar = 2.0e-4, double ecc = 1.0e-4) {
  tle::Tle t;
  t.catalog_number = 45000;
  t.international_designator = "20001A";
  t.epoch_jd = timeutil::to_julian(timeutil::make_datetime(2023, 1, 1, 12));
  t.inclination_deg = inclination;
  t.raan_deg = 100.0;
  t.eccentricity = ecc;
  t.arg_perigee_deg = 90.0;
  t.mean_anomaly_deg = 270.0;
  t.mean_motion_revday = mean_motion;
  t.bstar = bstar;
  return t;
}

TEST(Sgp4InitTest, RecoversBrouwerSemiMajorAxis) {
  const Sgp4Propagator prop(starlink_like());
  // The un-Kozai'd SMA differs from the pure-Kepler value by < a few km.
  const double kepler_alt = orbit::altitude_km_from_mean_motion(15.06);
  EXPECT_NEAR(prop.recovered_altitude_km(), kepler_alt, 3.0);
  EXPECT_FALSE(prop.deep_space());
  EXPECT_EQ(prop.catalog_number(), 45000);
}

TEST(Sgp4InitTest, EpochStateOnOrbit) {
  const Sgp4Propagator prop(starlink_like());
  const orbit::StateVector sv = prop.propagate_minutes(0.0);
  const double r = norm(sv.position_km);
  const double v = norm(sv.velocity_kms);
  EXPECT_NEAR(r, 6928.0, 10.0);
  EXPECT_NEAR(v, 7.59, 0.02);
}

TEST(Sgp4InitTest, RejectsSubsurfacePerigee) {
  tle::Tle t = starlink_like();
  t.mean_motion_revday = 17.5;  // ~170 km SMA altitude
  t.eccentricity = 0.05;        // perigee far below ground
  EXPECT_THROW(Sgp4Propagator{t}, PropagationError);
}

TEST(Sgp4PropagateTest, PeriodReturnsNearStart) {
  const Sgp4Propagator prop(starlink_like(15.06, 53.05, 0.0));
  const orbit::StateVector start = prop.propagate_minutes(0.0);
  const double period = units::kMinutesPerDay / 15.06;
  const orbit::StateVector later = prop.propagate_minutes(period);
  // One rev later the satellite is near its starting position (J2 moves the
  // node slightly; allow tens of km over one orbit).
  EXPECT_NEAR(norm(orbit::sub(later.position_km, start.position_km)), 0.0, 80.0);
}

TEST(Sgp4PropagateTest, ContinuityOverSmallSteps) {
  const Sgp4Propagator prop(starlink_like());
  const orbit::StateVector a = prop.propagate_minutes(100.0);
  const orbit::StateVector b = prop.propagate_minutes(100.0 + 1.0 / 60.0);
  const double displacement = norm(orbit::sub(b.position_km, a.position_km));
  // One second of flight ~ 7.6 km.
  EXPECT_NEAR(displacement, 7.59, 0.3);
}

TEST(Sgp4PropagateTest, NoDragCircularAltitudeStable) {
  const Sgp4Propagator prop(starlink_like(15.06, 53.05, 0.0, 1e-4));
  for (double t = 0.0; t <= 7.0 * 1440.0; t += 360.0) {
    const double r = norm(prop.propagate_minutes(t).position_km);
    EXPECT_NEAR(r, 6928.0, 15.0) << "t=" << t;
  }
}

TEST(Sgp4PropagateTest, PositiveBstarDecaysOverWeeks) {
  const Sgp4Propagator drag(starlink_like(15.06, 53.05, 5.0e-3));
  const Sgp4Propagator no_drag(starlink_like(15.06, 53.05, 0.0));
  // Average radius over one orbit after 30 days, drag vs no drag.
  auto mean_radius = [](const Sgp4Propagator& p, double t0) {
    double sum = 0.0;
    int n = 0;
    for (double t = t0; t < t0 + 96.0; t += 8.0, ++n) {
      sum += norm(p.propagate_minutes(t).position_km);
    }
    return sum / n;
  };
  const double r_drag = mean_radius(drag, 30.0 * 1440.0);
  const double r_free = mean_radius(no_drag, 30.0 * 1440.0);
  EXPECT_LT(r_drag, r_free - 1.0);
}

TEST(Sgp4PropagateTest, BackwardPropagationWorks) {
  const Sgp4Propagator prop(starlink_like());
  const orbit::StateVector sv = prop.propagate_minutes(-1440.0);
  EXPECT_NEAR(norm(sv.position_km), 6928.0, 15.0);
}

TEST(Sgp4PropagateTest, PropagateJdMatchesMinutes) {
  const Sgp4Propagator prop(starlink_like());
  const double jd = prop.epoch_jd() + 0.5;
  const orbit::StateVector a = prop.propagate_jd(jd);
  const orbit::StateVector b = prop.propagate_minutes(720.0);
  EXPECT_NEAR(norm(orbit::sub(a.position_km, b.position_km)), 0.0, 1e-6);
}

TEST(Sgp4PropagateTest, InclinationPreserved) {
  const Sgp4Propagator prop(starlink_like(15.06, 53.05, 0.0));
  for (double t = 0.0; t < 3.0 * 1440.0; t += 123.0) {
    const orbit::Vec3 h = angular_momentum(prop.propagate_minutes(t));
    EXPECT_NEAR(std::acos(h[2] / norm(h)), units::deg2rad(53.05), 0.01);
  }
}

TEST(Sgp4PropagateTest, RaanRegressesWestwardForPrograde) {
  // J2 regression for i < 90 deg: RAAN decreases (the Fig 9 drift).
  const Sgp4Propagator prop(starlink_like(15.06, 53.05, 0.0));
  const auto raan_at = [&](double t) {
    // The ascending node lies along z x h = (-h_y, h_x, 0).
    const orbit::Vec3 h = angular_momentum(prop.propagate_minutes(t));
    return std::atan2(h[0], -h[1]);
  };
  const double drift =
      units::wrap_pi(raan_at(10.0 * 1440.0) - raan_at(0.0));
  // J2 regression at 550 km / 53 deg: ~ -4.5 deg/day * 10 days.
  EXPECT_NEAR(units::rad2deg(drift), -45.0, 4.5);
}

TEST(Sgp4PropagateTest, StatusDecayed) {
  // Huge B* at low altitude drives mean motion up until the radius drops
  // below Earth's surface; the propagator must report kDecayed, not crash.
  tle::Tle t = starlink_like(16.2, 53.0, 0.4, 1e-4);
  const Sgp4Propagator prop(t);
  orbit::StateVector out;
  Sgp4Status status = Sgp4Status::kOk;
  for (double days = 1.0; days < 120.0; days += 1.0) {
    status = prop.try_propagate_minutes(days * 1440.0, out);
    if (status != Sgp4Status::kOk) break;
  }
  EXPECT_NE(status, Sgp4Status::kOk);
}

TEST(Sgp4PropagateTest, ThrowingVariantCarriesStatusText) {
  tle::Tle t = starlink_like(16.2, 53.0, 0.4, 1e-4);
  const Sgp4Propagator prop(t);
  EXPECT_THROW(static_cast<void>(prop.propagate_minutes(365.0 * 1440.0)), PropagationError);
}

TEST(Sgp4StatusTest, Strings) {
  EXPECT_EQ(to_string(Sgp4Status::kOk), "ok");
  EXPECT_NE(to_string(Sgp4Status::kDecayed).find("decayed"), std::string::npos);
  EXPECT_FALSE(to_string(Sgp4Status::kEccentricityOutOfRange).empty());
}

// -------------------------- deep space (SDP4) ------------------------------

tle::Tle geo_like() {
  tle::Tle t = starlink_like(1.00273896, 0.5, 0.0, 3.0e-4);
  t.catalog_number = 19548;
  return t;
}

TEST(Sdp4Test, SelectsDeepSpaceForLongPeriods) {
  EXPECT_TRUE(Sgp4Propagator(geo_like()).deep_space());
  EXPECT_FALSE(Sgp4Propagator(starlink_like()).deep_space());
  // The 225-minute boundary: n = 6.4 rev/day is exactly 225 min.
  EXPECT_TRUE(Sgp4Propagator(starlink_like(6.3, 53.0, 0.0, 0.01)).deep_space());
  EXPECT_FALSE(Sgp4Propagator(starlink_like(6.5, 53.0, 0.0, 0.01)).deep_space());
}

TEST(Sdp4Test, GeoRadiusStableOverMonth) {
  const Sgp4Propagator prop(geo_like());
  for (double t = 0.0; t <= 30.0 * 1440.0; t += 1440.0) {
    const double r = norm(prop.propagate_minutes(t).position_km);
    EXPECT_NEAR(r, 42164.0, 80.0) << "t(days)=" << t / 1440.0;
  }
}

TEST(Sdp4Test, MolniyaOrbitPropagates) {
  // 12-hour highly-eccentric orbit at the critical inclination exercises the
  // half-day resonance branch (irez == 2).
  tle::Tle t;
  t.catalog_number = 8195;
  t.international_designator = "75081A";
  t.epoch_jd = timeutil::to_julian(timeutil::make_datetime(2022, 6, 1));
  t.inclination_deg = 63.4;
  t.raan_deg = 45.0;
  t.eccentricity = 0.72;
  t.arg_perigee_deg = 270.0;
  t.mean_anomaly_deg = 10.0;
  t.mean_motion_revday = 2.0057;
  t.bstar = 0.0;
  const Sgp4Propagator prop(t);
  EXPECT_TRUE(prop.deep_space());
  for (double days = 0.0; days <= 30.0; days += 3.0) {
    const orbit::StateVector sv = prop.propagate_minutes(days * 1440.0);
    const double r = norm(sv.position_km);
    // Between perigee (~6900 km) and apogee (~46000 km).
    EXPECT_GT(r, 6370.0) << days;
    EXPECT_LT(r, 50000.0) << days;
  }
}

TEST(Sdp4Test, ResonanceIntegratorRestartsBackwards) {
  const Sgp4Propagator prop(geo_like());
  const orbit::StateVector forward = prop.propagate_minutes(10.0 * 1440.0);
  (void)prop.propagate_minutes(20.0 * 1440.0);
  // Jumping backwards must restart the integrator and reproduce the value.
  const orbit::StateVector again = prop.propagate_minutes(10.0 * 1440.0);
  EXPECT_NEAR(norm(orbit::sub(forward.position_km, again.position_km)), 0.0, 1e-6);
}

// Grid sweep: the propagator stays physical across LEO configurations.
class Sgp4Grid
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(Sgp4Grid, RadiusWithinElementBounds) {
  const auto [mean_motion, inclination, ecc] = GetParam();
  const Sgp4Propagator prop(starlink_like(mean_motion, inclination, 1e-5, ecc));
  const double a = orbit::sma_from_mean_motion_revday(mean_motion);
  for (double t = 0.0; t <= 2880.0; t += 97.0) {
    const double r = norm(prop.propagate_minutes(t).position_km);
    EXPECT_GT(r, a * (1.0 - ecc) - 40.0);
    EXPECT_LT(r, a * (1.0 + ecc) + 40.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Leo, Sgp4Grid,
    ::testing::Combine(::testing::Values(11.25, 13.4, 15.06, 15.7),
                       ::testing::Values(0.1, 28.5, 53.05, 97.6, 140.0),
                       ::testing::Values(1e-4, 2e-3, 0.02)));

TEST(Sgp4FromTextTest, ParsesAndPropagatesIss) {
  const tle::Tle iss = tle::parse_tle(
      "1 25544U 98067A   08264.51782528 -.00002182  00000-0 -11606-4 0  2927",
      "2 25544  51.6416 247.4627 0006703 130.5360 325.0288 15.72125391563537");
  const Sgp4Propagator prop(iss);
  const orbit::StateVector sv = prop.propagate_minutes(0.0);
  // ISS: radius ~6720 km, speed ~7.66 km/s.
  EXPECT_NEAR(norm(sv.position_km), 6720.0, 30.0);
  EXPECT_NEAR(norm(sv.velocity_kms), 7.66, 0.05);
}

}  // namespace
}  // namespace cosmicdance::sgp4
