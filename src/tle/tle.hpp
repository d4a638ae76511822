// Two-Line Element set parsing and formatting (NORAD/CSpOC format).
//
// TLEs are the only trajectory observable the paper's pipeline consumes, so
// this module is deliberately strict: fixed columns, verified checksums,
// and symmetric parse/format so a round trip is bit-exact for valid data.
//
// Line 1: 1 NNNNNC IIIIIIII YYDDD.DDDDDDDD +.NNNNNNNN +NNNNN-N +NNNNN-N N NNNNC
// Line 2: 2 NNNNN III.IIII RRR.RRRR EEEEEEE PPP.PPPP AAA.AAAA MM.MMMMMMMMRRRRRC
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <string_view>

#include "timeutil/datetime.hpp"

namespace cosmicdance::tle {

/// One parsed TLE record.  Angles in degrees and mean motion in rev/day,
/// exactly as the format carries them; conversion helpers live in cd_orbit.
struct Tle {
  int catalog_number = 0;                ///< NORAD catalog number (1..99999)
  char classification = 'U';             ///< U/C/S
  std::string international_designator;  ///< e.g. "19074A" (cols 10-17, trimmed)

  double epoch_jd = 0.0;                 ///< UTC Julian date of the element epoch

  double mean_motion_dot = 0.0;   ///< ndot/2, rev/day^2 (line-1 field as-is)
  double mean_motion_ddot = 0.0;  ///< nddot/6, rev/day^3 (line-1 field as-is)
  double bstar = 0.0;             ///< B* drag term, 1/earth-radii
  int ephemeris_type = 0;
  int element_set_number = 0;

  double inclination_deg = 0.0;
  double raan_deg = 0.0;
  double eccentricity = 0.0;
  double arg_perigee_deg = 0.0;
  double mean_anomaly_deg = 0.0;
  double mean_motion_revday = 0.0;
  int rev_number = 0;

  /// Epoch as civil UTC time.
  [[nodiscard]] timeutil::DateTime epoch_datetime() const;

  /// The paper's altitude proxy: altitude (km) derived from mean motion.
  [[nodiscard]] double altitude_km() const;

  /// Throws ValidationError when fields are outside format limits.
  void validate() const;
};

/// TLE line checksum: sum of digits plus one per '-', modulo 10.
[[nodiscard]] int checksum(std::string_view line);

/// Parse a TLE from its two lines.  Verifies line numbers, column layout,
/// matching catalog numbers and checksums.  Throws ParseError on failure.
/// Takes views so the zero-copy ingestion path can pass slices of a file
/// mapping; no per-field strings are allocated on the success path.
[[nodiscard]] Tle parse_tle(std::string_view line1, std::string_view line2);

/// Bytes of one formatted record: two 69-column lines, each ending in '\n'.
inline constexpr std::size_t kTleRecordBytes = 140;

/// Write `tle` as its two lines, checksums and newlines into `out`.  Calls
/// validate() first, then throws ValidationError naming the field when a
/// value does not fit its columns (e.g. a RAAN that rounds to 1000.0000,
/// a designator over 8 characters, a B* of 1e9 or more).  The bytes are
/// those of the printf formats the columns are defined by (DESIGN.md §19).
void format_tle_record(const Tle& tle, std::span<char, kTleRecordBytes> out);

/// Format a TLE as its two 69-character lines (with valid checksums).
struct TleLines {
  std::string line1;
  std::string line2;
};
[[nodiscard]] TleLines format_tle(const Tle& tle);

}  // namespace cosmicdance::tle
