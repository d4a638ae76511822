// Civil UTC time, Julian dates and TLE epochs.
//
// CosmicDance aligns two time-stamped data modalities (hourly Dst records
// and irregular TLE epochs), so all timestamps funnel through two canonical
// representations: a civil DateTime (for parsing/printing) and a Julian
// date in UTC (for arithmetic).  Leap seconds are ignored, matching the
// conventions of both the Dst archive and the TLE format.
#pragma once

#include <compare>
#include <string>

namespace cosmicdance::timeutil {

/// A civil UTC timestamp with fractional seconds.
///
/// Invariant-light by design (a struct per C.2): validation is explicit via
/// validate(), and the factory functions always return validated values.
struct DateTime {
  int year = 2000;
  int month = 1;   ///< 1..12
  int day = 1;     ///< 1..31 (month-appropriate)
  int hour = 0;    ///< 0..23
  int minute = 0;  ///< 0..59
  double second = 0.0;  ///< [0, 60)

  /// Throws ValidationError if any field is out of range.
  void validate() const;

  /// ISO-8601 "YYYY-MM-DDTHH:MM:SS.sss" representation.
  [[nodiscard]] std::string to_string() const;

  friend auto operator<=>(const DateTime&, const DateTime&) = default;
};

/// True when `year` is a Gregorian leap year.
[[nodiscard]] bool is_leap_year(int year) noexcept;

/// Days in `month` of `year`.  Throws ValidationError for month out of 1..12.
[[nodiscard]] int days_in_month(int year, int month);

/// Day-of-year (1..366) for a validated civil date.
[[nodiscard]] int day_of_year(int year, int month, int day);

/// Julian date (UTC) of a civil timestamp.  Valid for years 1900-2100.
[[nodiscard]] double to_julian(const DateTime& dt);

/// Civil timestamp of a Julian date (UTC).
[[nodiscard]] DateTime from_julian(double jd);

/// Julian date of the J2000.0 epoch used as the hour-axis origin
/// (2000-01-01T00:00:00 UTC).
inline constexpr double kJdEpoch2000 = 2451544.5;

/// Parse "YYYY-MM-DD" or "YYYY-MM-DDTHH:MM:SS[.sss]" (also accepts a space
/// separator).  Throws ParseError on malformed input.
[[nodiscard]] DateTime parse_datetime(const std::string& text);

/// Convenience factory for a validated civil date.
[[nodiscard]] DateTime make_datetime(int year, int month, int day, int hour = 0,
                                     int minute = 0, double second = 0.0);

/// TLE epoch representation: two-digit year plus fractional day-of-year.
/// Years 57..99 map to 1957..1999; 00..56 map to 2000..2056 (NORAD rule).
[[nodiscard]] double tle_epoch_to_julian(int two_digit_year, double day_of_year_fraction);

/// Inverse: Julian date -> (two-digit year, fractional day-of-year).
void julian_to_tle_epoch(double jd, int& two_digit_year, double& day_of_year_fraction);

/// Add a number of (possibly fractional, possibly negative) hours.
[[nodiscard]] DateTime add_hours(const DateTime& dt, double hours);

/// Signed difference `b - a` in hours.
[[nodiscard]] double hours_between(const DateTime& a, const DateTime& b);

}  // namespace cosmicdance::timeutil
