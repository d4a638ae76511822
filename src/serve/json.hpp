// Minimal strict JSON reading/writing for the serving wire protocol.
//
// The daemon's requests and responses are small JSON documents inside
// length-prefixed frames (wire.hpp).  This header gives the serve layer a
// dependency-free reader (strict: the whole payload must be one well-formed
// value, trailing garbage is an error).  The response builders write with
// common/json.hpp, the number formatter and string escaper the exporters
// and cdlint share.  Numbers are validated against the JSON grammar during
// the parse but kept as raw tokens; conversion goes through the checked
// io::parse_* helpers, keeping this file inside the project's raw-parse
// rule (cdlint R3).  This is the project's one JSON reader: the tests that
// check the exporters' and cdlint's output parse it here too.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/json.hpp"

namespace cosmicdance::serve {

using cosmicdance::escape_json;

/// One parsed JSON value.  Objects keep insertion order (no hashing, so
/// iteration is deterministic); lookups are linear, which is fine at
/// request sizes.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  /// Decoded text for kString; the raw token for kNumber.
  std::string text;
  std::vector<JsonValue> items;                            ///< kArray
  std::vector<std::pair<std::string, JsonValue>> members;  ///< kObject

  /// Member lookup on an object; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  /// The value as a double (kNumber only; checked conversion).
  [[nodiscard]] std::optional<double> number() const;
  /// The value as a long (kNumber only; rejects fractions / exponents that
  /// do not parse as a base-10 integer).
  [[nodiscard]] std::optional<long> integer() const;
};

/// Arrays and objects nested deeper than this make parse_json fail.  The
/// parser recurses once per level, so the bound keeps a hostile request
/// (say, a frame of a million '[') from overflowing the connection
/// thread's stack; the deepest document the project writes, a
/// quality_report response, nests 5 levels.
inline constexpr std::size_t kMaxJsonDepth = 64;

/// Parse one complete JSON document; nullopt on any syntax error and on
/// nesting deeper than kMaxJsonDepth.
[[nodiscard]] std::optional<JsonValue> parse_json(std::string_view text);

}  // namespace cosmicdance::serve
