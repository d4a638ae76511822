// The one JSON number formatter and the one JSON string escaper, shared by
// the serving responses, the obs and diag exporters and cdlint's --json
// output.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>

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

/// Escape `text` for embedding inside a JSON string literal (quotes not
/// included): the two-character escapes JSON defines, \u00XX for any other
/// control character, every other byte as is.
[[nodiscard]] inline std::string escape_json(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace cosmicdance
