// WDC Kyoto hourly-value exchange format for the Dst index.
//
// One 120-character record per UT day:
//   cols 1-3   index name ("DST")
//   cols 4-5   year (two digits)
//   cols 6-7   month
//   col  8     '*'
//   cols 9-10  day of month
//   col  11    record flag ('R' real-time, 'P' provisional, 'F' final)
//   col  12    'R' (reserved)
//   col  13    'X' (version)
//   cols 15-16 century digits ("19"/"20")
//   cols 17-20 base value (units of 100 nT)
//   cols 21-116  24 hourly values, 4 chars each, relative to the base value
//   cols 117-120 daily mean
// A value of 9999 marks a missing hour.  This mirrors the archive layout so
// the ingestion code path is identical to consuming the real data.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "diag/diag.hpp"
#include "spaceweather/dst_index.hpp"

namespace cosmicdance::spaceweather {

/// Serialise a Dst series as WDC daily records.  The series is padded with
/// missing-value markers to whole UT days.
[[nodiscard]] std::string to_wdc(const DstIndex& dst);

/// Parse WDC records (one per line; blank lines ignored).  Missing hours at
/// the edges are trimmed; missing hours in the interior throw ParseError
/// (the archive has none in the covered period).
///
/// With a ParseLog (stage "wdc"), a tolerant policy changes two things:
/// malformed day records are quarantined by line number instead of
/// throwing, and interior gaps (missing hours, including holes left by a
/// quarantined day) are linearly interpolated between their neighbours,
/// with each filled hour counted as repaired.  Out-of-order or duplicate
/// day records are quarantined as structure errors.
/// Takes a view so the zero-copy path can pass a MappedFile's contents.
[[nodiscard]] DstIndex from_wdc(std::string_view text,
                                diag::ParseLog* log = nullptr,
                                const std::string& source = "<text>");

/// File variants.  Throw IoError on filesystem problems.  Reading is
/// mmap-backed when available.
void write_wdc_file(const std::string& path, const DstIndex& dst);
[[nodiscard]] DstIndex read_wdc_file(const std::string& path,
                                     diag::ParseLog* log = nullptr);

}  // namespace cosmicdance::spaceweather
