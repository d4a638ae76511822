// Reads the committed golden CSVs under tests/golden/: one record per
// line, fields split at every comma.  The goldens hold only numbers, names
// and ISO timestamps, never a quoted field, so a quote means the file is
// not one this splitter can read, and it throws.
#pragma once

#include <string>
#include <vector>

#include "common/error.hpp"
#include "io/csv.hpp"
#include "io/file.hpp"

namespace cosmicdance::test_support {

inline std::vector<io::CsvRow> read_golden_csv(const std::string& path) {
  const std::string text = io::read_file(path);
  if (text.find('"') != std::string::npos) {
    throw ParseError(path + ": quoted CSV field in a golden file");
  }
  std::vector<io::CsvRow> rows;
  for (std::size_t pos = 0; pos < text.size();) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    io::CsvRow row;
    for (std::size_t begin = pos;;) {
      const std::size_t comma = text.find(',', begin);
      if (comma == std::string::npos || comma > eol) {
        row.push_back(text.substr(begin, eol - begin));
        break;
      }
      row.push_back(text.substr(begin, comma - begin));
      begin = comma + 1;
    }
    rows.push_back(std::move(row));
    pos = eol + 1;
  }
  return rows;
}

}  // namespace cosmicdance::test_support
