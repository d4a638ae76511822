#include "io/csv.hpp"

#include <fstream>
#include <ostream>

#include "common/error.hpp"

namespace cosmicdance::io {

std::string escape_csv_field(const std::string& field) {
  const bool needs_quotes = field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (const char c : field) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::string format_csv_row(const CsvRow& row) {
  std::string out;
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += escape_csv_field(row[i]);
  }
  return out;
}

void write_csv(std::ostream& out, const std::vector<CsvRow>& rows) {
  for (const CsvRow& row : rows) out << format_csv_row(row) << '\n';
}

void write_csv_file(const std::string& path, const std::vector<CsvRow>& rows) {
  std::ofstream out(path);
  if (!out) throw IoError("cannot open CSV file for writing: " + path);
  write_csv(out, rows);
  if (!out) throw IoError("failed writing CSV file: " + path);
}

}  // namespace cosmicdance::io
