// Minimal strict JSON reading/writing for the serving wire protocol.
//
// The daemon's requests and responses are small JSON documents inside
// length-prefixed frames (wire.hpp).  This header gives the serve layer a
// dependency-free reader (strict: the whole payload must be one well-formed
// value, trailing garbage is an error) and the string escaping the
// response builders need; they write numbers with common/json_number.hpp,
// the formatter the obs exporters share.  Numbers are validated against
// the JSON grammar during the parse but kept as raw tokens; conversion goes
// through the checked io::parse_* helpers, keeping this file inside the
// project's raw-parse rule (cdlint R3).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cosmicdance::serve {

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

/// Parse one complete JSON document; nullopt on any syntax error.
[[nodiscard]] std::optional<JsonValue> parse_json(std::string_view text);

/// Escape `text` for embedding inside a JSON string literal (quotes not
/// included).  Control characters become \u00XX.
[[nodiscard]] std::string escape_json(std::string_view text);

}  // namespace cosmicdance::serve
