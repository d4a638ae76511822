#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "spaceweather/burton.hpp"
#include "spaceweather/dst_index.hpp"
#include "spaceweather/generator.hpp"
#include "spaceweather/gscale.hpp"
#include "spaceweather/historical.hpp"
#include "spaceweather/storms.hpp"
#include "spaceweather/wdc.hpp"
#include "stats/descriptive.hpp"
#include "timeutil/datetime.hpp"

namespace cosmicdance::spaceweather {
namespace {

using timeutil::make_datetime;

TEST(DstIndexTest, BasicAccessors) {
  const DstIndex dst(make_datetime(2023, 1, 1), {-10.0, -20.0, -30.0});
  EXPECT_EQ(dst.size(), 3u);
  const timeutil::HourIndex start = dst.start_hour();
  EXPECT_TRUE(dst.covers(start));
  EXPECT_TRUE(dst.covers(start + 2));
  EXPECT_FALSE(dst.covers(start + 3));
  EXPECT_FALSE(dst.covers(start - 1));
  EXPECT_DOUBLE_EQ(dst.at(start + 1), -20.0);
  EXPECT_THROW(static_cast<void>(dst.at(start + 3)), ValidationError);
  EXPECT_DOUBLE_EQ(dst.minimum(), -30.0);
}

TEST(DstIndexTest, SliceClamps) {
  const DstIndex dst(make_datetime(2023, 1, 1), {-1.0, -2.0, -3.0, -4.0});
  const auto start = dst.start_hour();
  const DstIndex mid = dst.slice(start + 1, start + 3);
  EXPECT_EQ(mid.size(), 2u);
  EXPECT_DOUBLE_EQ(mid.at(start + 1), -2.0);
  const DstIndex all = dst.slice(start - 100, start + 100);
  EXPECT_EQ(all.size(), 4u);
  EXPECT_TRUE(dst.slice(start + 10, start + 20).empty());
}

TEST(DstIndexTest, IntensityPercentiles) {
  // 100 hours: 99 quiet at -10, one deep at -300.
  std::vector<double> values(100, -10.0);
  values[50] = -300.0;
  const DstIndex dst(make_datetime(2023, 1, 1), std::move(values));
  EXPECT_NEAR(dst.intensity_percentile(50), 10.0, 1e-9);
  EXPECT_GT(dst.intensity_percentile(99.9), 100.0);
  EXPECT_DOUBLE_EQ(dst.dst_threshold_at_percentile(50), -10.0);
}

TEST(DstIndexTest, PositiveDstCountsAsZeroIntensity) {
  const DstIndex dst(make_datetime(2023, 1, 1), {5.0, 10.0, -20.0, -20.0});
  EXPECT_DOUBLE_EQ(dst.intensity_percentile(0), 0.0);
}

TEST(GScaleTest, BandBoundaries) {
  EXPECT_EQ(classify(0.0), StormCategory::kQuiet);
  EXPECT_EQ(classify(-49.9), StormCategory::kQuiet);
  EXPECT_EQ(classify(-50.0), StormCategory::kMinor);
  EXPECT_EQ(classify(-100.0), StormCategory::kModerate);
  EXPECT_EQ(classify(-199.9), StormCategory::kModerate);
  EXPECT_EQ(classify(-200.0), StormCategory::kSevere);
  EXPECT_EQ(classify(-213.0), StormCategory::kSevere);  // the Apr-2023 event
  EXPECT_EQ(classify(-350.0), StormCategory::kExtreme);
  EXPECT_EQ(classify(-412.0), StormCategory::kExtreme);  // May-2024
}

TEST(GScaleTest, NamesAndThresholds) {
  EXPECT_EQ(to_string(StormCategory::kMinor), "minor");
  EXPECT_EQ(to_string(StormCategory::kExtreme), "extreme");
  EXPECT_DOUBLE_EQ(threshold(StormCategory::kMinor), -50.0);
  EXPECT_DOUBLE_EQ(threshold(StormCategory::kSevere), -200.0);
  EXPECT_THROW(static_cast<void>(threshold(StormCategory::kQuiet)), ValidationError);
}

DstIndex series_with(std::vector<double> values) {
  return DstIndex(make_datetime(2023, 6, 1), std::move(values));
}

TEST(StormDetectorTest, SegmentsContiguousRuns) {
  const DstIndex dst = series_with(
      {-10, -20, -60, -80, -55, -10, -10, -120, -90, -40, -10});
  const StormDetector detector;
  const auto events = detector.detect(dst);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].duration_hours(), 3);
  EXPECT_DOUBLE_EQ(events[0].peak_dst_nt, -80.0);
  EXPECT_EQ(events[0].category, StormCategory::kMinor);
  EXPECT_EQ(events[1].duration_hours(), 2);
  EXPECT_EQ(events[1].category, StormCategory::kModerate);
}

TEST(StormDetectorTest, PeakHourIsMostNegative) {
  const DstIndex dst = series_with({-60, -70, -90, -65, -10});
  const auto events = StormDetector().detect(dst);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].peak_hour, dst.start_hour() + 2);
  EXPECT_EQ(events[0].start_datetime().hour, 0);
}

TEST(StormDetectorTest, StormAtSeriesEdges) {
  const DstIndex dst = series_with({-70, -60, -10, -60, -70});
  const auto events = StormDetector().detect(dst);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].start_hour, dst.start_hour());
  EXPECT_EQ(events[1].end_hour, dst.end_hour());
}

TEST(StormDetectorTest, CategoryHours) {
  const DstIndex dst = series_with({-10, -60, -110, -210, -360, -55});
  const auto hours = StormDetector::category_hours(dst);
  EXPECT_EQ(hours.at(StormCategory::kMinor), 2);
  EXPECT_EQ(hours.at(StormCategory::kModerate), 1);
  EXPECT_EQ(hours.at(StormCategory::kSevere), 1);
  EXPECT_EQ(hours.at(StormCategory::kExtreme), 1);
}

TEST(StormDetectorTest, DurationsUseCategoryThreshold) {
  // One moderate storm: 6 hours below -50 but only 2 below -100.
  const DstIndex dst = series_with({-60, -80, -120, -130, -70, -55, -10});
  const StormDetector detector;
  const auto moderate =
      detector.durations_for_category(dst, StormCategory::kModerate);
  ASSERT_EQ(moderate.size(), 1u);
  EXPECT_DOUBLE_EQ(moderate[0], 2.0);
  // No event *peaks* in minor (the peak is -130), so minor has none.
  EXPECT_TRUE(detector.durations_for_category(dst, StormCategory::kMinor).empty());
}

TEST(BurtonTest, RecoveryIsExponential) {
  // No injection: initial state decays by e^(-1/tau) per hour.
  std::vector<double> q(10, 0.0);
  const auto out = integrate_burton(q, 10.0, -100.0);
  ASSERT_EQ(out.size(), 10u);
  EXPECT_NEAR(out[0], -100.0 * std::exp(-0.1), 1e-9);
  EXPECT_NEAR(out[9], -100.0 * std::exp(-1.0), 1e-9);
}

TEST(BurtonTest, InjectionProfileHitsPeak) {
  const double peak = -250.0;
  const auto profile = storm_injection_profile(peak, 5.0, 12.0, 40);
  const auto response = integrate_burton(profile, 12.0);
  // The response reaches the requested peak at the end of the main phase.
  double minimum = 0.0;
  for (const double v : response) minimum = std::min(minimum, v);
  EXPECT_NEAR(minimum, peak, 1.0);
}

TEST(BurtonTest, Validation) {
  std::vector<double> q(5, 0.0);
  EXPECT_THROW(integrate_burton(q, 0.0), ValidationError);
  EXPECT_THROW(storm_injection_profile(100.0, 5.0, 10.0, 20), ValidationError);
  EXPECT_THROW(storm_injection_profile(-100.0, 0.5, 10.0, 20), ValidationError);
}

TEST(GeneratorTest, DeterministicForSeed) {
  DstGeneratorConfig config;
  config.hours = 24 * 30;
  const DstIndex a = DstGenerator(config).generate();
  const DstIndex b = DstGenerator(config).generate();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.values()[i], b.values()[i]);
  }
}

TEST(GeneratorTest, QuietOnlyStatistics) {
  DstGeneratorConfig config;
  config.hours = 24 * 365;
  config.include_random_storms = false;
  const DstIndex dst = DstGenerator(config).generate();
  std::vector<double> v(dst.values().begin(), dst.values().end());
  EXPECT_NEAR(stats::mean(v), kQuietMeanNt, 1.5);
  EXPECT_NEAR(stats::stddev(v), kQuietSigmaNt, 1.5);
  EXPECT_GT(dst.minimum(), -60.0);  // no storms injected
}

TEST(GeneratorTest, ScriptedStormAppearsOnSchedule) {
  DstGeneratorConfig config;
  config.start = make_datetime(2023, 1, 1);
  config.hours = 24 * 60;
  config.include_random_storms = false;
  config.scripted_storms.push_back(
      {make_datetime(2023, 1, 20, 6), -180.0, 4.0, 1.0, 10.0});
  const DstIndex dst = DstGenerator(config).generate();
  EXPECT_NEAR(dst.minimum(), -180.0, 12.0);
  // The minimum falls within a day of the scripted onset.
  const auto onset = timeutil::hour_index_from_datetime(make_datetime(2023, 1, 20));
  double around_peak = 0.0;
  for (timeutil::HourIndex h = onset; h < onset + 48; ++h) {
    around_peak = std::min(around_peak, dst.at(h));
  }
  EXPECT_NEAR(around_peak, dst.minimum(), 1e-9);
}

TEST(GeneratorTest, RejectsBadConfig) {
  DstGeneratorConfig config;
  config.hours = 0;
  EXPECT_THROW(DstGenerator{config}, ValidationError);
  config.hours = 10;
  config.quiet_ar1 = 1.0;
  EXPECT_THROW(DstGenerator{config}, ValidationError);
  config.quiet_ar1 = 0.9;
  config.scripted_storms.push_back({make_datetime(2020, 1, 2), +10.0, 4, 0, 10});
  EXPECT_THROW(DstGenerator(config).generate(), ValidationError);
}

// ---- the paper-window calibration (§4 headline numbers) -------------------

class PaperWindow : public ::testing::Test {
 protected:
  static const DstIndex& dst() {
    static const DstIndex series =
        DstGenerator(DstGenerator::paper_window_2020_2024()).generate();
    return series;
  }
};

TEST_F(PaperWindow, CoversJan2020ToMay2024) {
  EXPECT_EQ(dst().start_datetime().year, 2020);
  const auto end = timeutil::datetime_from_hour_index(dst().end_hour());
  EXPECT_EQ(end.year, 2024);
  EXPECT_EQ(end.month, 5);
}

TEST_F(PaperWindow, NinetyNinthPercentileNearMinus63) {
  // Paper: 99th-ptile intensity = -63 nT.
  EXPECT_NEAR(dst().dst_threshold_at_percentile(99.0), -63.0, 8.0);
}

TEST_F(PaperWindow, NinetyFifthPercentileBelowMinorThreshold) {
  // Paper: the 95th-ptile intensity is weaker than a minor storm.
  EXPECT_GT(dst().dst_threshold_at_percentile(95.0), kMinorThresholdNt);
}

TEST_F(PaperWindow, CategoryHoursMatchHeadline) {
  const auto hours = StormDetector::category_hours(dst());
  // Paper: 720 mild, 74 moderate, 3 severe hours.
  EXPECT_NEAR(static_cast<double>(hours.at(StormCategory::kMinor)), 720.0, 220.0);
  EXPECT_NEAR(static_cast<double>(hours.at(StormCategory::kModerate)), 74.0, 40.0);
  EXPECT_EQ(hours.at(StormCategory::kSevere), 3);
  EXPECT_EQ(hours.count(StormCategory::kExtreme), 0u);
}

TEST_F(PaperWindow, SevereStormIsAprilTwentyThree) {
  const auto severe = StormDetector().durations_for_category(
      dst(), StormCategory::kSevere);
  ASSERT_EQ(severe.size(), 1u);
  EXPECT_DOUBLE_EQ(severe[0], 3.0);  // "lasted for 3 contiguous hours"
  EXPECT_NEAR(dst().minimum(), -213.0, 10.0);
}

TEST_F(PaperWindow, DurationShapes) {
  const StormDetector detector;
  const auto minor = detector.durations_for_category(dst(), StormCategory::kMinor);
  ASSERT_GT(minor.size(), 20u);
  // Paper: mild median ~3 h, max ~29 h.
  EXPECT_NEAR(stats::median(minor), 3.0, 2.0);
  EXPECT_GT(stats::max(minor), 15.0);
  const auto moderate =
      detector.durations_for_category(dst(), StormCategory::kModerate);
  ASSERT_GT(moderate.size(), 5u);
  EXPECT_NEAR(stats::median(moderate), 3.0, 2.5);
}

TEST(SuperstormTest, May2024Shape) {
  const DstIndex dst =
      DstGenerator(DstGenerator::with_may_2024_superstorm()).generate();
  // Paper: peak ~ -412 nT, below -200 nT for ~23 hours.
  EXPECT_NEAR(dst.minimum(), -412.0, 25.0);
  long below200 = 0;
  for (const double v : dst.values()) {
    if (v <= -200.0) ++below200;
  }
  EXPECT_NEAR(static_cast<double>(below200), 23.0, 7.0);
  // The peak lands on May 10/11.
  const auto may10 = timeutil::hour_index_from_datetime(make_datetime(2024, 5, 10));
  const DstIndex may = dst.slice(may10, may10 + 48);
  EXPECT_NEAR(may.minimum(), dst.minimum(), 1e-9);
}

TEST(HistoricalTest, TableContents) {
  const auto& storms = historical_storms();
  ASSERT_GE(storms.size(), 10u);
  EXPECT_EQ(storms.front().name, "Carrington Event");
  EXPECT_DOUBLE_EQ(storms.front().peak_dst_nt, -1800.0);
  EXPECT_FALSE(storms.front().instrumental);
  // Chronological order.
  for (std::size_t i = 1; i < storms.size(); ++i) {
    EXPECT_LT(timeutil::to_julian(storms[i - 1].date),
              timeutil::to_julian(storms[i].date));
  }
}

TEST(HistoricalTest, Fig8StormsAreInstrumental) {
  const auto fig8 = fig8_storms();
  EXPECT_EQ(fig8.size(), 8u);
  for (const auto& storm : fig8) {
    EXPECT_TRUE(storm.instrumental);
    EXPECT_LT(storm.peak_dst_nt, -250.0);
  }
}

TEST(HistoricalTest, FiftyYearSeriesContainsNamedPeaks) {
  const DstIndex dst =
      DstGenerator(DstGenerator::historical_50_years()).generate();
  // The deepest value is the 1989 Quebec storm.
  EXPECT_NEAR(dst.minimum(), -589.0, 30.0);
  // Each Fig 8 storm shows up within 2 days of its date.
  for (const auto& storm : fig8_storms()) {
    const auto hour = timeutil::hour_index_from_datetime(storm.date);
    const DstIndex around = dst.slice(hour - 24, hour + 72);
    EXPECT_LT(around.minimum(), storm.peak_dst_nt + 60.0) << storm.name;
  }
}

TEST(WdcTest, RoundTripExactToRounding) {
  DstGeneratorConfig config;
  config.hours = 24 * 10;
  config.start = make_datetime(2023, 2, 27);  // spans a month boundary
  const DstIndex original = DstGenerator(config).generate();
  const DstIndex parsed = from_wdc(to_wdc(original));
  ASSERT_EQ(parsed.size(), original.size());
  EXPECT_EQ(parsed.start_hour(), original.start_hour());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_NEAR(parsed.values()[i], original.values()[i], 0.51);  // integer nT
  }
}

TEST(WdcTest, PartialDayPaddedWithMissing) {
  // Series starting at 05:00: the leading 5 hours are missing markers and
  // must be trimmed on parse.
  const DstIndex dst(make_datetime(2023, 1, 1, 5), std::vector<double>(30, -25.0));
  const DstIndex parsed = from_wdc(to_wdc(dst));
  EXPECT_EQ(parsed.start_hour(), dst.start_hour());
  EXPECT_EQ(parsed.size(), dst.size());
}

TEST(WdcTest, RecordLayout) {
  const DstIndex dst(make_datetime(2024, 5, 10), std::vector<double>(24, -100.0));
  const std::string text = to_wdc(dst);
  ASSERT_GE(text.size(), 120u);
  EXPECT_EQ(text.substr(0, 3), "DST");
  EXPECT_EQ(text.substr(3, 2), "24");  // year
  EXPECT_EQ(text.substr(5, 2), "05");  // month
  EXPECT_EQ(text[7], '*');
  EXPECT_EQ(text.substr(8, 2), "10");  // day
  const std::size_t newline = text.find('\n');
  EXPECT_EQ(newline, 120u);
}

TEST(WdcTest, ParseErrors) {
  EXPECT_THROW(from_wdc("XXX2405*10RRX 200000"), ParseError);
  EXPECT_THROW(from_wdc("DST2405*10RR"), ParseError);
  EXPECT_TRUE(from_wdc("").empty());
}

TEST(WdcTest, EmptySeries) { EXPECT_TRUE(to_wdc(DstIndex{}).empty()); }

}  // namespace
}  // namespace cosmicdance::spaceweather
