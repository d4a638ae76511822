// How much of a memory mapping is resident, read from /proc/self/smaps:
// the tests that check a pass drops the pages it has read use it.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>

#include "io/parse.hpp"

namespace cosmicdance::test_support {

/// Resident bytes of the mapping that starts at `base`, read from
/// /proc/self/smaps; -1 when no mapping starts there.
inline long resident_bytes(const void* base) {
  char digits[2 * sizeof(std::uintptr_t)];
  const char* end = std::to_chars(std::begin(digits), std::end(digits),
                                  reinterpret_cast<std::uintptr_t>(base), 16)
                        .ptr;
  const std::string_view want(digits, static_cast<std::size_t>(end - digits));
  std::ifstream smaps("/proc/self/smaps");
  std::string line;
  bool in_mapping = false;
  while (std::getline(smaps, line)) {
    // Mapping headers open with a lower-case hex range; field lines with a
    // capitalised name such as "Rss:".
    const bool header = !line.empty() && ((line[0] >= '0' && line[0] <= '9') ||
                                          (line[0] >= 'a' && line[0] <= 'f'));
    if (header) {
      std::string_view start = std::string_view(line).substr(0, line.find('-'));
      start.remove_prefix(std::min(start.find_first_not_of('0'), start.size()));
      in_mapping = start == want;
    } else if (in_mapping && line.rfind("Rss:", 0) == 0) {
      const long kb =
          io::parse_leading_long(std::string_view(line).substr(4)).value_or(-1);
      return kb < 0 ? -1 : kb * 1024;
    }
  }
  return -1;
}

}  // namespace cosmicdance::test_support
