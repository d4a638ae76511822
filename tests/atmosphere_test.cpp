#include <gtest/gtest.h>

#include <cmath>

#include "atmosphere/drag.hpp"
#include "atmosphere/exponential.hpp"
#include "atmosphere/storm_density.hpp"
#include "common/error.hpp"
#include "spaceweather/dst_index.hpp"
#include "timeutil/datetime.hpp"

namespace cosmicdance::atmosphere {
namespace {

TEST(ExponentialTest, SeaLevelDensity) {
  EXPECT_NEAR(density_kg_m3(0.0), 1.225, 1e-6);
}

TEST(ExponentialTest, TableAnchors) {
  // Band base values are exact at the band edges.
  EXPECT_NEAR(density_kg_m3(500.0), 6.967e-13, 1e-16);
  EXPECT_NEAR(density_kg_m3(1000.0), 3.019e-15, 1e-18);
  EXPECT_NEAR(density_kg_m3(150.0), 2.070e-9, 1e-12);
}

TEST(ExponentialTest, MonotoneDecreasing) {
  double previous = density_kg_m3(0.0);
  for (double h = 5.0; h <= 1200.0; h += 5.0) {
    const double rho = density_kg_m3(h);
    EXPECT_LT(rho, previous) << "altitude " << h;
    previous = rho;
  }
}

TEST(ExponentialTest, ContinuousAcrossBands) {
  // No large jumps at band boundaries.
  for (const double edge : {25.0, 100.0, 150.0, 300.0, 500.0, 900.0}) {
    const double below = density_kg_m3(edge - 0.01);
    const double above = density_kg_m3(edge + 0.01);
    EXPECT_NEAR(above / below, 1.0, 0.05) << "edge " << edge;
  }
}

TEST(ExponentialTest, ClampsNegativeAltitude) {
  EXPECT_DOUBLE_EQ(density_kg_m3(-5.0), density_kg_m3(0.0));
}

TEST(ExponentialTest, ExtrapolatesAbove1000) {
  EXPECT_LT(density_kg_m3(1500.0), density_kg_m3(1000.0));
  EXPECT_GT(density_kg_m3(1500.0), 0.0);
}

TEST(ExponentialTest, ScaleHeightGrowsWithAltitude) {
  // The local scale height: H = 1 / (ln rho(h) - ln rho(h + 1 km)).
  const auto scale_height = [](double altitude_km) {
    return 1.0 / (std::log(density_kg_m3(altitude_km)) -
                  std::log(density_kg_m3(altitude_km + 1.0)));
  };
  EXPECT_LT(scale_height(100.0), scale_height(500.0));
  EXPECT_LT(scale_height(500.0), scale_height(1000.0));
}

TEST(StormDensityTest, QuietIsUnity) {
  EXPECT_DOUBLE_EQ(storm_enhancement_factor(550.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(storm_enhancement_factor(550.0, -20.0), 1.0);
  EXPECT_DOUBLE_EQ(storm_enhancement_factor(550.0, 15.0), 1.0);
}

TEST(StormDensityTest, CalibrationAnchors) {
  // ~5x at 550 km for a -400 nT super-storm (Starlink's May-2024 report).
  EXPECT_NEAR(storm_enhancement_factor(550.0, -400.0), 5.0, 0.5);
  // Roughly 1.8-2x for a -100 nT moderate storm.
  const double moderate = storm_enhancement_factor(550.0, -100.0);
  EXPECT_GT(moderate, 1.5);
  EXPECT_LT(moderate, 2.2);
}

TEST(StormDensityTest, GrowsWithIntensityAndAltitude) {
  EXPECT_LT(storm_enhancement_factor(550.0, -100.0),
            storm_enhancement_factor(550.0, -300.0));
  EXPECT_LT(storm_enhancement_factor(300.0, -200.0),
            storm_enhancement_factor(800.0, -200.0));
}

TEST(StormDensityTest, AltitudeScaleClamped) {
  const double low = storm_enhancement_factor(10.0, -200.0);
  const double expected_min = 1.0 + kSensitivityAtReference * kMinAltitudeScale *
                                        (200.0 - kQuietOffsetNt) / 100.0;
  EXPECT_NEAR(low, expected_min, 1e-12);
}

TEST(StormDensityModelTest, UsesDstSeries) {
  const spaceweather::DstIndex dst(timeutil::make_datetime(2024, 5, 10),
                                   {-10.0, -400.0, -10.0});
  const StormDensityModel model(&dst);
  const double quiet_jd = timeutil::to_julian(timeutil::make_datetime(2024, 5, 10, 0, 30));
  const double storm_jd = timeutil::to_julian(timeutil::make_datetime(2024, 5, 10, 1, 30));
  EXPECT_DOUBLE_EQ(model.factor(550.0, quiet_jd), 1.0);
  EXPECT_GT(model.factor(550.0, storm_jd), 4.0);
  EXPECT_NEAR(model.density_kg_m3(550.0, storm_jd) /
                  atmosphere::density_kg_m3(550.0),
              model.factor(550.0, storm_jd), 1e-12);
}

TEST(StormDensityModelTest, OutsideSeriesIsQuiet) {
  const spaceweather::DstIndex dst(timeutil::make_datetime(2024, 5, 10), {-400.0});
  const StormDensityModel model(&dst);
  const double before = timeutil::to_julian(timeutil::make_datetime(2024, 5, 9));
  EXPECT_DOUBLE_EQ(model.factor(550.0, before), 1.0);
  const StormDensityModel null_model(nullptr);
  EXPECT_DOUBLE_EQ(null_model.factor(550.0, before), 1.0);
}

TEST(DragTest, AccelerationQuadraticInSpeed) {
  const double a1 = drag_acceleration_ms2(1e-12, 7500.0, 0.01);
  const double a2 = drag_acceleration_ms2(1e-12, 15000.0, 0.01);
  EXPECT_NEAR(a2 / a1, 4.0, 1e-12);
  EXPECT_NEAR(a1, 0.5 * 1e-12 * 7500.0 * 7500.0 * 0.01, 1e-20);
}

TEST(DragTest, DecayRateRealisticAtStarlinkShell) {
  // Quiet-time decay at 550 km with a knife-edge Starlink: ~metres/day.
  const double rho = density_kg_m3(550.0);
  const double rate = circular_decay_rate_km_per_day(550.0, rho, 0.004);
  EXPECT_LT(rate, 0.0);
  EXPECT_GT(rate, -0.05);  // shallower than 50 m/day
  // Tumbling at 300 km: km-per-day scale reentry spiral.
  const double spiral =
      circular_decay_rate_km_per_day(300.0, density_kg_m3(300.0), 0.3);
  EXPECT_LT(spiral, -1.0);
}

TEST(DragTest, DecayScalesLinearlyWithDensityAndBallistic) {
  const double base = circular_decay_rate_km_per_day(550.0, 1e-13, 0.01);
  EXPECT_NEAR(circular_decay_rate_km_per_day(550.0, 2e-13, 0.01) / base, 2.0,
              1e-9);
  EXPECT_NEAR(circular_decay_rate_km_per_day(550.0, 1e-13, 0.02) / base, 2.0,
              1e-9);
}

TEST(DragTest, BstarBridgeRoundTrip) {
  const double ballistic = 0.004;
  const double bstar = bstar_from_ballistic(ballistic);
  // B* = rho_0 * B / 2 at the reference density.
  EXPECT_NEAR(bstar, 0.5 * kBstarReferenceDensity * ballistic, 1e-18);
  // Typical Starlink B* magnitude: a few 1e-4 per Earth radius.
  EXPECT_GT(bstar, 1e-4);
  EXPECT_LT(bstar, 1e-3);
}

TEST(DragTest, BstarScalesWithDensityRatio) {
  EXPECT_NEAR(bstar_from_ballistic(0.004, 5.0) / bstar_from_ballistic(0.004, 1.0),
              5.0, 1e-12);
}

}  // namespace
}  // namespace cosmicdance::atmosphere
