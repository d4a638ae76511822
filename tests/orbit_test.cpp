#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"
#include "orbit/constants.hpp"
#include "orbit/elements.hpp"
#include "orbit/frames.hpp"
#include "orbit/state.hpp"
#include "timeutil/sidereal.hpp"

namespace cosmicdance::orbit {
namespace {

using units::deg2rad;

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
