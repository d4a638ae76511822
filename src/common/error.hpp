// Error hierarchy for the CosmicDance libraries.
//
// All recoverable failures are reported via exceptions derived from
// cosmicdance::Error (itself a std::runtime_error), so callers can catch
// either the broad base or a narrow category.  Functions that cannot fail
// are marked noexcept at their declaration sites.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

namespace cosmicdance {

/// Base class of every exception thrown by CosmicDance libraries.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Machine-readable classification of record-level parse failures.  The
/// cosmicdance::diag data-quality subsystem counts quarantined records by
/// category; the enum lives here (not in cd_diag) so every throw site can
/// tag its ParseError without a dependency on the diagnostics layer.
enum class ErrorCategory {
  kSyntax,     ///< malformed text: wrong width, stray characters
  kChecksum,   ///< TLE line checksum mismatch
  kNumeric,    ///< a numeric field failed to parse as a number
  kRange,      ///< parsed fine but semantically out of range
  kStructure,  ///< record structure: missing lines/keys, gaps, bad ordering
};

inline constexpr std::size_t kErrorCategoryCount = 5;

/// Malformed textual input (TLE lines, WDC records, OMM messages, ...).
class ParseError : public Error {
 public:
  explicit ParseError(const std::string& what,
                      ErrorCategory category = ErrorCategory::kSyntax)
      : Error("parse error: " + what), category_(category) {}

  /// What kind of malformation this is, for quarantine bookkeeping.
  [[nodiscard]] ErrorCategory category() const noexcept { return category_; }

 private:
  ErrorCategory category_;
};

/// Semantically invalid values (out-of-range dates, negative durations, ...).
class ValidationError : public Error {
 public:
  explicit ValidationError(const std::string& what)
      : Error("validation error: " + what) {}
};

/// Orbit propagation failure (SGP4 error codes, decayed satellites, ...).
class PropagationError : public Error {
 public:
  explicit PropagationError(const std::string& what)
      : Error("propagation error: " + what) {}
};

/// Filesystem / stream failures.
class IoError : public Error {
 public:
  explicit IoError(const std::string& what) : Error("io error: " + what) {}
};

}  // namespace cosmicdance
