// RFC-4180 CSV writing: the figure, storm, metrics and quality-report
// exports.  The programs only write CSV; nothing in them reads it back.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace cosmicdance::io {

using CsvRow = std::vector<std::string>;

/// Escape a field per RFC 4180: quote it when it contains , " CR or LF,
/// doubling each quote inside.  A bare CR is quoted too, since a reader
/// that normalises CRLF would take a trailing one for a line end.
[[nodiscard]] std::string escape_csv_field(const std::string& field);

/// Serialise one record (no trailing newline).
[[nodiscard]] std::string format_csv_row(const CsvRow& row);

/// Write records to a stream, one per line.
void write_csv(std::ostream& out, const std::vector<CsvRow>& rows);

/// Write records to a file.  Throws IoError when unwritable.
void write_csv_file(const std::string& path, const std::vector<CsvRow>& rows);

}  // namespace cosmicdance::io
