#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"
#include "orbit/constants.hpp"
#include "orbit/elements.hpp"
#include "orbit/frames.hpp"
#include "orbit/kepler.hpp"
#include "orbit/state.hpp"
#include "timeutil/sidereal.hpp"

namespace cosmicdance::orbit {
namespace {

using units::deg2rad;
using units::kTwoPi;

TEST(ConstantsTest, Wgs72Values) {
  const GravityModel g = wgs72();
  EXPECT_DOUBLE_EQ(g.mu, 398600.8);
  EXPECT_DOUBLE_EQ(g.radius_earth_km, 6378.135);
  EXPECT_NEAR(g.xke, 0.07436691613, 1e-10);
  EXPECT_NEAR(g.tumin, 13.44683969, 1e-6);
  EXPECT_NEAR(g.j3oj2, -0.00000253881 / 0.001082616, 1e-12);
}

TEST(ElementsTest, MeanMotionSmaRoundTrip) {
  for (const double sma : {6728.0, 6928.0, 7178.0, 26560.0, 42164.0}) {
    const double n = mean_motion_revday_from_sma(sma);
    EXPECT_NEAR(sma_from_mean_motion_revday(n), sma, 1e-6);
  }
}

TEST(ElementsTest, StarlinkShellNumbers) {
  // ~550 km shell corresponds to ~15.06 rev/day (the familiar Starlink value).
  const double n = mean_motion_from_altitude_km(550.0);
  EXPECT_NEAR(n, 15.06, 0.03);
  EXPECT_NEAR(altitude_km_from_mean_motion(n), 550.0, 1e-9);
}

TEST(ElementsTest, GeoMeanMotion) {
  // Geostationary: ~35786 km altitude, ~1 rev/day.
  EXPECT_NEAR(mean_motion_from_altitude_km(35786.0), 1.0027, 0.001);
}

TEST(ElementsTest, CircularSpeedLeo) {
  // ~7.59 km/s at 550 km.
  EXPECT_NEAR(circular_speed_kms(6928.0), 7.585, 0.01);
}

TEST(ElementsTest, Validation) {
  EXPECT_THROW(static_cast<void>(mean_motion_revday_from_sma(0.0)), ValidationError);
  EXPECT_THROW(static_cast<void>(sma_from_mean_motion_revday(-1.0)), ValidationError);
  EXPECT_THROW(static_cast<void>(circular_speed_kms(-5.0)), ValidationError);

  KeplerianElements coe;
  coe.eccentricity = 1.0;
  EXPECT_THROW(coe.validate(), ValidationError);
  coe.eccentricity = 0.5;
  coe.semi_major_axis_km = -1.0;
  EXPECT_THROW(coe.validate(), ValidationError);
  coe.semi_major_axis_km = 7000.0;
  coe.inclination_rad = 4.0;
  EXPECT_THROW(coe.validate(), ValidationError);
}

TEST(KeplerTest, CircularIsIdentity) {
  for (double m = 0.0; m < kTwoPi; m += 0.3) {
    EXPECT_NEAR(solve_kepler(m, 0.0), m, 1e-12);
  }
}

TEST(KeplerTest, KnownSolution) {
  // Vallado example 2-1: M = 235.4 deg, e = 0.4 -> E = 220.512074 deg.
  const double e_anom = solve_kepler(deg2rad(235.4), 0.4);
  EXPECT_NEAR(units::rad2deg(e_anom), 220.512074767522, 1e-6);
}

// Property sweep: the solver must satisfy Kepler's equation for all (M, e).
class KeplerSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(KeplerSweep, SatisfiesKeplersEquation) {
  const auto [m_deg, ecc] = GetParam();
  const double m = deg2rad(m_deg);
  const double e_anom = solve_kepler(m, ecc);
  const double m_back = mean_from_eccentric(e_anom, ecc);
  EXPECT_NEAR(units::wrap_pi(m_back - units::wrap_two_pi(m)), 0.0, 1e-9)
      << "M=" << m_deg << " e=" << ecc;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, KeplerSweep,
    ::testing::Combine(::testing::Values(0.0, 1.0, 45.0, 90.0, 179.0, 180.0,
                                         181.0, 270.0, 359.0),
                       ::testing::Values(0.0, 1e-4, 0.1, 0.5, 0.9, 0.99)));

TEST(KeplerTest, AnomalyConversionsRoundTrip) {
  for (const double ecc : {0.0, 0.2, 0.7}) {
    for (double nu = 0.05; nu < kTwoPi; nu += 0.5) {
      const double e_anom = eccentric_from_true(nu, ecc);
      EXPECT_NEAR(true_from_eccentric(e_anom, ecc), nu, 1e-10);
    }
  }
}

TEST(KeplerTest, RejectsHyperbolic) {
  EXPECT_THROW(static_cast<void>(solve_kepler(1.0, 1.0)), ValidationError);
  EXPECT_THROW(static_cast<void>(solve_kepler(1.0, -0.1)), ValidationError);
  EXPECT_THROW(static_cast<void>(true_from_eccentric(1.0, 1.5)), ValidationError);
}

TEST(StateTest, VectorAlgebra) {
  const Vec3 x{1.0, 0.0, 0.0};
  const Vec3 y{0.0, 1.0, 0.0};
  EXPECT_DOUBLE_EQ(dot(x, y), 0.0);
  EXPECT_DOUBLE_EQ(dot(x, x), 1.0);
  EXPECT_DOUBLE_EQ(norm(Vec3{0.0, 0.0, -3.0}), 3.0);
  EXPECT_DOUBLE_EQ(norm(Vec3{3.0, 4.0, 0.0}), 5.0);
  EXPECT_DOUBLE_EQ(sub(x, y)[0], 1.0);
  EXPECT_DOUBLE_EQ(sub(x, y)[1], -1.0);
}

TEST(FramesTest, TemeEcefRoundTrip) {
  // teme_to_ecef turns the vector about Z by GMST; turning it back by -GMST
  // restores the TEME vector.
  const Vec3 r{6524.834, 6862.875, 6448.296};
  const double jd = 2453101.828;
  const Vec3 ecef = teme_to_ecef(r, jd);
  const double c = std::cos(timeutil::gmst_radians(jd));
  const double s = std::sin(timeutil::gmst_radians(jd));
  const Vec3 back{c * ecef[0] - s * ecef[1], s * ecef[0] + c * ecef[1], ecef[2]};
  EXPECT_NEAR(back[0], r[0], 1e-9);
  EXPECT_NEAR(back[1], r[1], 1e-9);
  EXPECT_NEAR(back[2], r[2], 1e-9);
}

TEST(FramesTest, RotationPreservesNorm) {
  const Vec3 r{1234.5, -6543.2, 987.6};
  EXPECT_NEAR(norm(teme_to_ecef(r, 2459000.5)), norm(r), 1e-9);
}

TEST(FramesTest, GeodeticRoundTrip) {
  // The ECEF point of a known geodetic position on the WGS-84 ellipsoid
  // converts back to that position.
  const double lat = deg2rad(34.352496);
  const double lon = deg2rad(46.4464);
  const double alt = 5085.22;
  const double e2 = kWgs84Flattening * (2.0 - kWgs84Flattening);
  const double n =
      wgs84().radius_earth_km / std::sqrt(1.0 - e2 * std::sin(lat) * std::sin(lat));
  const Vec3 ecef{(n + alt) * std::cos(lat) * std::cos(lon),
                  (n + alt) * std::cos(lat) * std::sin(lon),
                  (n * (1.0 - e2) + alt) * std::sin(lat)};
  const Geodetic back = ecef_to_geodetic(ecef);
  EXPECT_NEAR(back.latitude_rad, lat, 1e-9);
  EXPECT_NEAR(back.longitude_rad, lon, 1e-9);
  EXPECT_NEAR(back.altitude_km, alt, 1e-6);
}

TEST(FramesTest, EquatorAndPole) {
  // Point on the equator at sea level.
  const Geodetic equator = ecef_to_geodetic({6378.137, 0.0, 0.0});
  EXPECT_NEAR(equator.latitude_rad, 0.0, 1e-9);
  EXPECT_NEAR(equator.altitude_km, 0.0, 1e-6);
  // Point above the north pole: polar radius ~6356.752 km.
  const Geodetic pole = ecef_to_geodetic({0.0, 0.0, 6756.752});
  EXPECT_NEAR(pole.latitude_rad, deg2rad(90.0), 1e-6);
  EXPECT_NEAR(pole.altitude_km, 400.0, 0.01);
}

TEST(FramesTest, LeoSatelliteAltitudeSensible) {
  // A satellite at geocentric radius 6928 km should sit at ~535-560 km
  // geodetic altitude depending on latitude (Earth oblateness).
  for (double lat_frac = 0.0; lat_frac <= 1.0; lat_frac += 0.25) {
    const double angle = lat_frac * units::kPi / 2.0;
    const Vec3 r{6928.0 * std::cos(angle), 0.0, 6928.0 * std::sin(angle)};
    const Geodetic geo = ecef_to_geodetic(r);
    EXPECT_GT(geo.altitude_km, 520.0);
    EXPECT_LT(geo.altitude_km, 575.0);
  }
}

}  // namespace
}  // namespace cosmicdance::orbit
