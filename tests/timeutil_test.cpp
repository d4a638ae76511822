#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"
#include "timeutil/datetime.hpp"
#include "timeutil/hour_axis.hpp"
#include "timeutil/sidereal.hpp"

namespace cosmicdance::timeutil {
namespace {

TEST(DateTimeTest, ValidatesFields) {
  EXPECT_NO_THROW(static_cast<void>(make_datetime(2024, 2, 29)));  // leap day
  EXPECT_THROW(static_cast<void>(make_datetime(2023, 2, 29)), ValidationError);
  EXPECT_THROW(static_cast<void>(make_datetime(2024, 13, 1)), ValidationError);
  EXPECT_THROW(static_cast<void>(make_datetime(2024, 0, 1)), ValidationError);
  EXPECT_THROW(static_cast<void>(make_datetime(2024, 1, 32)), ValidationError);
  EXPECT_THROW(static_cast<void>(make_datetime(2024, 4, 31)), ValidationError);
  EXPECT_THROW(static_cast<void>(make_datetime(2024, 1, 1, 24)), ValidationError);
  EXPECT_THROW(static_cast<void>(make_datetime(2024, 1, 1, 0, 60)), ValidationError);
  EXPECT_THROW(static_cast<void>(make_datetime(2024, 1, 1, 0, 0, 60.0)), ValidationError);
  EXPECT_THROW(static_cast<void>(make_datetime(1799, 1, 1)), ValidationError);
  EXPECT_THROW(static_cast<void>(make_datetime(2101, 1, 1)), ValidationError);
}

TEST(DateTimeTest, LeapYearRules) {
  EXPECT_TRUE(is_leap_year(2000));   // divisible by 400
  EXPECT_FALSE(is_leap_year(1900));  // divisible by 100 only
  EXPECT_TRUE(is_leap_year(2024));
  EXPECT_FALSE(is_leap_year(2023));
}

TEST(DateTimeTest, DaysInMonth) {
  EXPECT_EQ(days_in_month(2024, 2), 29);
  EXPECT_EQ(days_in_month(2023, 2), 28);
  EXPECT_EQ(days_in_month(2023, 12), 31);
  EXPECT_EQ(days_in_month(2023, 4), 30);
  EXPECT_THROW(static_cast<void>(days_in_month(2023, 0)), ValidationError);
  EXPECT_THROW(static_cast<void>(days_in_month(2023, 13)), ValidationError);
}

TEST(DateTimeTest, KnownJulianDates) {
  // J2000.0 epoch: 2000-01-01 12:00 UTC = JD 2451545.0.
  EXPECT_NEAR(to_julian(make_datetime(2000, 1, 1, 12)), 2451545.0, 1e-9);
  // Start of the hour axis.
  EXPECT_NEAR(to_julian(make_datetime(2000, 1, 1, 0)), kJdEpoch2000, 1e-9);
  // Vallado example: 1996-10-26 14:20:00 -> 2450383.09722222.
  EXPECT_NEAR(to_julian(make_datetime(1996, 10, 26, 14, 20, 0.0)),
              2450383.0972222222, 1e-8);
}

TEST(DateTimeTest, RoundTripThroughJulian) {
  const DateTime dt = make_datetime(2023, 3, 24, 17, 41, 12.5);
  const DateTime back = from_julian(to_julian(dt));
  EXPECT_EQ(back.year, dt.year);
  EXPECT_EQ(back.month, dt.month);
  EXPECT_EQ(back.day, dt.day);
  EXPECT_EQ(back.hour, dt.hour);
  EXPECT_EQ(back.minute, dt.minute);
  EXPECT_NEAR(back.second, dt.second, 1e-4);
}

// Round-trip sweep across the supported era, including leap days and
// year boundaries.
class JulianRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(JulianRoundTrip, YearStartRoundTrips) {
  const int year = GetParam();
  for (const auto& [m, d, h] : {std::tuple{1, 1, 0}, std::tuple{2, 28, 23},
                                std::tuple{6, 30, 12}, std::tuple{12, 31, 23}}) {
    const DateTime dt = make_datetime(year, m, d, h, 30, 15.0);
    const DateTime back = from_julian(to_julian(dt));
    EXPECT_EQ(back.year, dt.year) << dt.to_string();
    EXPECT_EQ(back.month, dt.month) << dt.to_string();
    EXPECT_EQ(back.day, dt.day) << dt.to_string();
    EXPECT_EQ(back.hour, dt.hour) << dt.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Years, JulianRoundTrip,
                         ::testing::Values(1958, 1970, 1999, 2000, 2019, 2020,
                                           2023, 2024, 2048, 2056));

TEST(DateTimeTest, DayOfYear) {
  EXPECT_EQ(day_of_year(2023, 1, 1), 1);
  EXPECT_EQ(day_of_year(2023, 12, 31), 365);
  EXPECT_EQ(day_of_year(2024, 12, 31), 366);
  EXPECT_EQ(day_of_year(2024, 3, 1), 61);  // leap year
  EXPECT_EQ(day_of_year(2023, 3, 1), 60);
}

TEST(DateTimeTest, ParseDateOnly) {
  const DateTime dt = parse_datetime("2024-05-10");
  EXPECT_EQ(dt.year, 2024);
  EXPECT_EQ(dt.month, 5);
  EXPECT_EQ(dt.day, 10);
  EXPECT_EQ(dt.hour, 0);
}

TEST(DateTimeTest, ParseDateTimeVariants) {
  EXPECT_EQ(parse_datetime("2024-05-10T17:00:30").hour, 17);
  EXPECT_EQ(parse_datetime("2024-05-10 17:05:30").minute, 5);
  EXPECT_NEAR(parse_datetime("2024-05-10T17:00:30.25").second, 30.25, 1e-9);
}

TEST(DateTimeTest, ParseRejectsGarbage) {
  EXPECT_THROW(static_cast<void>(parse_datetime("not a date")), ParseError);
  EXPECT_THROW(static_cast<void>(parse_datetime("2024-05")), ParseError);
  EXPECT_THROW(static_cast<void>(parse_datetime("2024-13-10")), ValidationError);
  EXPECT_THROW(static_cast<void>(parse_datetime("2024-05-10Z12:00:00")), ParseError);
}

TEST(DateTimeTest, ParseRejectsTrailingGarbageAfterTimeOfDay) {
  // sscanf stops at the first unconvertible character, so these used to
  // parse silently with the junk ignored.
  EXPECT_THROW(static_cast<void>(parse_datetime("2024-05-10T12:00:00junk")), ParseError);
  EXPECT_THROW(static_cast<void>(parse_datetime("2024-05-10T12:00:00.5abc")), ParseError);
  EXPECT_THROW(static_cast<void>(parse_datetime("2024-05-10T12:00x")), ParseError);
  EXPECT_THROW(static_cast<void>(parse_datetime("2024-05-10T12:00:")), ParseError);
  EXPECT_THROW(static_cast<void>(parse_datetime("2024-05-10 17:05 UTC")), ParseError);
  // The well-formed variants still parse.
  EXPECT_EQ(parse_datetime("2024-05-10T12:00").minute, 0);
  EXPECT_NEAR(parse_datetime("2024-05-10T12:00:00.5").second, 0.5, 1e-12);
}

TEST(DateTimeTest, ToStringIso) {
  EXPECT_EQ(make_datetime(2024, 5, 10, 17, 4, 3.5).to_string(),
            "2024-05-10T17:04:03.500");
}

TEST(DateTimeTest, AddHoursCrossesBoundaries) {
  const DateTime dt = make_datetime(2023, 12, 31, 23);
  const DateTime next = add_hours(dt, 2.0);
  EXPECT_EQ(next.year, 2024);
  EXPECT_EQ(next.month, 1);
  EXPECT_EQ(next.day, 1);
  EXPECT_EQ(next.hour, 1);
  const DateTime prev = add_hours(dt, -24.0);
  EXPECT_EQ(prev.day, 30);
}

TEST(DateTimeTest, HoursBetween) {
  const DateTime a = make_datetime(2024, 1, 1);
  const DateTime b = make_datetime(2024, 1, 2, 6);
  EXPECT_NEAR(hours_between(a, b), 30.0, 1e-9);
  EXPECT_NEAR(hours_between(b, a), -30.0, 1e-9);
}

TEST(TleEpochTest, CenturyRule) {
  // 57..99 -> 1957..1999, 00..56 -> 2000..2056.
  EXPECT_EQ(from_julian(tle_epoch_to_julian(57, 1.0)).year, 1957);
  EXPECT_EQ(from_julian(tle_epoch_to_julian(99, 1.0)).year, 1999);
  EXPECT_EQ(from_julian(tle_epoch_to_julian(0, 1.0)).year, 2000);
  EXPECT_EQ(from_julian(tle_epoch_to_julian(56, 1.0)).year, 2056);
}

TEST(TleEpochTest, FractionalDay) {
  // Day 32.5 of 2020 = Feb 1, 12:00.
  const DateTime dt = from_julian(tle_epoch_to_julian(20, 32.5));
  EXPECT_EQ(dt.month, 2);
  EXPECT_EQ(dt.day, 1);
  EXPECT_EQ(dt.hour, 12);
}

TEST(TleEpochTest, RoundTrip) {
  const double jd = to_julian(make_datetime(2023, 9, 18, 6, 30));
  int yy = 0;
  double doy = 0.0;
  julian_to_tle_epoch(jd, yy, doy);
  EXPECT_EQ(yy, 23);
  EXPECT_NEAR(tle_epoch_to_julian(yy, doy), jd, 1e-8);
}

TEST(TleEpochTest, RejectsBadInput) {
  EXPECT_THROW(static_cast<void>(tle_epoch_to_julian(-1, 10.0)), ValidationError);
  EXPECT_THROW(static_cast<void>(tle_epoch_to_julian(100, 10.0)), ValidationError);
  EXPECT_THROW(static_cast<void>(tle_epoch_to_julian(23, 0.5)), ValidationError);
  EXPECT_THROW(static_cast<void>(tle_epoch_to_julian(23, 366.0)), ValidationError);  // not leap
  EXPECT_NO_THROW(static_cast<void>(tle_epoch_to_julian(24, 366.5)));                // leap
}

TEST(HourAxisTest, EpochAnchorsAtZero) {
  EXPECT_EQ(hour_index_from_datetime(make_datetime(2000, 1, 1, 0)), 0);
  EXPECT_EQ(hour_index_from_datetime(make_datetime(2000, 1, 1, 1)), 1);
  EXPECT_EQ(hour_index_from_datetime(make_datetime(1999, 12, 31, 23)), -1);
}

TEST(HourAxisTest, RoundTrip) {
  for (const HourIndex h : {HourIndex{0}, HourIndex{123456}, HourIndex{-9876}}) {
    EXPECT_EQ(hour_index_from_datetime(datetime_from_hour_index(h)), h);
  }
}

TEST(HourAxisTest, FloorsWithinHour) {
  const double jd = to_julian(make_datetime(2024, 5, 10, 17, 59, 59.0));
  EXPECT_EQ(hour_index_from_julian(jd),
            hour_index_from_datetime(make_datetime(2024, 5, 10, 17)));
}

TEST(SiderealTest, GmstInRange) {
  for (double jd = 2451545.0; jd < 2451545.0 + 366.0; jd += 0.25) {
    const double gmst = gmst_radians(jd);
    EXPECT_GE(gmst, 0.0);
    EXPECT_LT(gmst, units::kTwoPi);
  }
}

TEST(SiderealTest, AdvancesBySiderealDay) {
  // GMST advances ~2*pi per sidereal day (23h56m4.09s).
  const double jd = 2459000.5;
  const double sidereal_day = 0.9972695663;
  const double delta = gmst_radians(jd + sidereal_day) - gmst_radians(jd);
  EXPECT_NEAR(units::wrap_pi(delta), 0.0, 1e-5);
}

TEST(SiderealTest, KnownValue) {
  // Vallado example 3-5: 1992-08-20 12:14:00 UT1 -> GMST 152.578787886 deg.
  const double jd = to_julian(make_datetime(1992, 8, 20, 12, 14, 0.0));
  EXPECT_NEAR(units::rad2deg(gmst_radians(jd)), 152.578787886, 1e-5);
}

}  // namespace
}  // namespace cosmicdance::timeutil
