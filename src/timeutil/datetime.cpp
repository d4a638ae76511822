#include "timeutil/datetime.hpp"

#include <array>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>

#include "common/error.hpp"

namespace cosmicdance::timeutil {
namespace {

constexpr std::array<int, 12> kDaysPerMonth{31, 28, 31, 30, 31, 30,
                                            31, 31, 30, 31, 30, 31};

}  // namespace

bool is_leap_year(int year) noexcept {
  return (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
}

int days_in_month(int year, int month) {
  if (month < 1 || month > 12) {
    throw ValidationError("month out of range: " + std::to_string(month));
  }
  if (month == 2 && is_leap_year(year)) return 29;
  return kDaysPerMonth[static_cast<std::size_t>(month - 1)];
}

void DateTime::validate() const {
  // Julian conversions are exact over the whole range (proleptic Gregorian
  // day arithmetic, century rule included); 1800 onward covers the
  // pre-instrumental reference storms.
  if (year < 1800 || year > 2100) {
    throw ValidationError("year out of supported range 1800-2100: " +
                          std::to_string(year));
  }
  if (month < 1 || month > 12) {
    throw ValidationError("month out of range: " + std::to_string(month));
  }
  if (day < 1 || day > days_in_month(year, month)) {
    throw ValidationError("day out of range: " + std::to_string(day));
  }
  if (hour < 0 || hour > 23) {
    throw ValidationError("hour out of range: " + std::to_string(hour));
  }
  if (minute < 0 || minute > 59) {
    throw ValidationError("minute out of range: " + std::to_string(minute));
  }
  if (second < 0.0 || second >= 60.0) {
    throw ValidationError("second out of range: " + std::to_string(second));
  }
}

std::string DateTime::to_string() const {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%04d-%02d-%02dT%02d:%02d:%06.3f", year,
                month, day, hour, minute, second);
  return buffer;
}

int day_of_year(int year, int month, int day) {
  DateTime probe{year, month, day, 0, 0, 0.0};
  probe.validate();
  int doy = day;
  for (int m = 1; m < month; ++m) doy += days_in_month(year, m);
  return doy;
}

double to_julian(const DateTime& dt) {
  dt.validate();
  // Fliegel-Van Flandern Gregorian day number.  Unlike the classic "jday"
  // formula (which skips the century rule and is one day early throughout
  // January-February 1900 and one day late from March 2100), this is exact
  // for the whole supported era; the two agree bit-for-bit in between, so
  // every epoch the paper touches keeps its value.
  const int a = (14 - dt.month) / 12;
  const int y = dt.year + 4800 - a;
  const int m = dt.month + 12 * a - 3;
  const int jdn = dt.day + (153 * m + 2) / 5 + 365 * y + y / 4 - y / 100 +
                  y / 400 - 32045;
  const double day_fraction =
      ((dt.second / 60.0 + dt.minute) / 60.0 + dt.hour) / 24.0;
  return static_cast<double>(jdn) - 0.5 + day_fraction;
}

DateTime from_julian(double jd) {
  // Exact integer inverse of to_julian (Richards' Gregorian calendar
  // algorithm), then split the day fraction into hh:mm:ss.
  const double shifted = jd + 0.5;
  const auto jdn = static_cast<long>(std::floor(shifted));
  const double fraction = shifted - std::floor(shifted);
  const long a = jdn + 32044;
  const long b = (4 * a + 3) / 146097;
  const long c = a - 146097 * b / 4;
  const long d = (4 * c + 3) / 1461;
  const long e = c - 1461 * d / 4;
  const long m = (5 * e + 2) / 153;
  DateTime dt;
  dt.day = static_cast<int>(e - (153 * m + 2) / 5 + 1);
  dt.month = static_cast<int>(m + 3 - 12 * (m / 10));
  dt.year = static_cast<int>(100 * b + d - 4800 + m / 10);
  double hours = fraction * 24.0;
  dt.hour = static_cast<int>(std::floor(hours));
  double minutes = (hours - dt.hour) * 60.0;
  dt.minute = static_cast<int>(std::floor(minutes));
  dt.second = (minutes - dt.minute) * 60.0;
  // Normalise rounding artefacts like second == 59.99999999 -> 60.  The
  // threshold is half a millisecond so %.3f printing never shows "60.000".
  if (dt.second >= 60.0 - 5e-4) {
    dt.second = 0.0;
    dt.minute += 1;
  }
  if (dt.minute >= 60) {
    dt.minute = 0;
    dt.hour += 1;
  }
  if (dt.hour >= 24) {
    dt.hour = 0;
    dt.day += 1;
    if (dt.day > days_in_month(dt.year, dt.month)) {
      dt.day = 1;
      dt.month += 1;
      if (dt.month > 12) {
        dt.month = 1;
        dt.year += 1;
      }
    }
  }
  return dt;
}

namespace {

/// Strict cursor scanner for the fixed datetime grammar.  Hand-rolled so
/// the parse stays inside the project's checked-parse discipline (sscanf
/// is off-limits outside src/io/); sign and whitespace tolerance matches
/// the %d/%lf behaviour it replaced, so out-of-range fields like a month
/// of -5 still reach validate() and surface as ValidationError, not as a
/// syntax error.
struct FieldScanner {
  const char* p;

  void skip_spaces() {
    while (*p != '\0' && std::isspace(static_cast<unsigned char>(*p))) ++p;
  }

  bool read_sign() {  // returns true when the field is negated
    const bool negative = *p == '-';
    if (*p == '+' || *p == '-') ++p;
    return negative;
  }

  bool read_int(int& out) {
    skip_spaces();
    const bool negative = read_sign();
    if (*p < '0' || *p > '9') return false;
    long value = 0;
    while (*p >= '0' && *p <= '9') {
      value = value * 10 + (*p - '0');
      if (value > 1000000000L) return false;
      ++p;
    }
    out = static_cast<int>(negative ? -value : value);
    return true;
  }

  /// digits[.digits] with either part optional (".5", "30.", "30.25").
  /// The value is numerator / 10^k in a single division, which rounds
  /// identically to a correctly-rounded decimal conversion of the same
  /// text, so round-trips through format_datetime stay bit-exact.
  bool read_seconds(double& out) {
    skip_spaces();
    const bool negative = read_sign();
    std::uint64_t numerator = 0;
    std::uint64_t denominator = 1;
    int digits = 0;
    bool any = false;
    while (*p >= '0' && *p <= '9') {
      if (++digits > 15) return false;
      numerator = numerator * 10 + static_cast<std::uint64_t>(*p - '0');
      any = true;
      ++p;
    }
    if (*p == '.') {
      ++p;
      while (*p >= '0' && *p <= '9') {
        if (++digits > 15) return false;
        numerator = numerator * 10 + static_cast<std::uint64_t>(*p - '0');
        denominator *= 10;
        any = true;
        ++p;
      }
    }
    if (!any) return false;
    out = static_cast<double>(numerator) / static_cast<double>(denominator);
    if (negative) out = -out;
    return true;
  }

  bool consume(char c) {
    if (*p != c) return false;
    ++p;
    return true;
  }
};

}  // namespace

DateTime parse_datetime(const std::string& text) {
  DateTime dt;
  FieldScanner scan{text.c_str()};
  if (!scan.read_int(dt.year) || !scan.consume('-') ||
      !scan.read_int(dt.month) || !scan.consume('-') ||
      !scan.read_int(dt.day)) {
    throw ParseError("bad datetime: '" + text + "'");
  }
  if (*scan.p == 'T' || *scan.p == ' ') {
    ++scan.p;
    int hour = 0;
    int minute = 0;
    if (!scan.read_int(hour) || !scan.consume(':') || !scan.read_int(minute)) {
      throw ParseError("bad time-of-day in datetime: '" + text + "'");
    }
    if (scan.consume(':')) {
      double second = 0.0;
      if (!scan.read_seconds(second)) {
        throw ParseError("bad time-of-day in datetime: '" + text + "'");
      }
      if (*scan.p != '\0') {
        throw ParseError("trailing characters in datetime: '" + text + "'");
      }
      dt.second = second;
    } else if (*scan.p != '\0') {
      throw ParseError("bad time-of-day in datetime: '" + text + "'");
    } else {
      dt.second = 0.0;
    }
    dt.hour = hour;
    dt.minute = minute;
  } else if (*scan.p != '\0') {
    throw ParseError("trailing characters in datetime: '" + text + "'");
  }
  dt.validate();
  return dt;
}

DateTime make_datetime(int year, int month, int day, int hour, int minute,
                       double second) {
  DateTime dt{year, month, day, hour, minute, second};
  dt.validate();
  return dt;
}

double tle_epoch_to_julian(int two_digit_year, double day_of_year_fraction) {
  if (two_digit_year < 0 || two_digit_year > 99) {
    throw ValidationError("TLE epoch year must be two digits: " +
                          std::to_string(two_digit_year));
  }
  const int year = two_digit_year < 57 ? 2000 + two_digit_year : 1900 + two_digit_year;
  const int limit = is_leap_year(year) ? 366 : 365;
  if (day_of_year_fraction < 1.0 || day_of_year_fraction >= limit + 1.0) {
    throw ValidationError("TLE epoch day-of-year out of range: " +
                          std::to_string(day_of_year_fraction));
  }
  const DateTime jan1{year, 1, 1, 0, 0, 0.0};
  return to_julian(jan1) + (day_of_year_fraction - 1.0);
}

void julian_to_tle_epoch(double jd, int& two_digit_year, double& day_of_year_fraction) {
  const DateTime dt = from_julian(jd);
  const DateTime jan1{dt.year, 1, 1, 0, 0, 0.0};
  day_of_year_fraction = jd - to_julian(jan1) + 1.0;
  two_digit_year = dt.year % 100;
}

DateTime add_hours(const DateTime& dt, double hours) {
  return from_julian(to_julian(dt) + hours / 24.0);
}

double hours_between(const DateTime& a, const DateTime& b) {
  return (to_julian(b) - to_julian(a)) * 24.0;
}

}  // namespace cosmicdance::timeutil
