// The one JSON number formatter, shared by the serving responses and the
// obs exporters.
#pragma once

#include <charconv>
#include <cmath>
#include <string>

namespace cosmicdance {

/// Format a double as a JSON number token that round-trips bit-exactly,
/// mapping non-finite values to null (JSON has no NaN/Inf).  std::to_chars
/// with chars_format::general and precision 17 is defined as printf's
/// %.17g in the "C" locale, so the bytes are %.17g's, without the format
/// parse and the locale lookup.
[[nodiscard]] inline std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];  // %.17g needs at most 24: sign, 17 digits, '.', e-308
  char* end = std::to_chars(buffer, buffer + sizeof(buffer), value,
                            std::chars_format::general, 17)
                  .ptr;
  return std::string(buffer, end);
}

}  // namespace cosmicdance
