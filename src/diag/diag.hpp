// Data-quality diagnostics for the ingestion layer.
//
// Every ingestion path (TLE catalogs, OMM messages, WDC Dst records)
// reports record-level outcomes through one ParseLog: records are
// accepted, repaired (recovered with a documented fix-up, e.g. an
// interpolated Dst gap) or quarantined (rejected with a category and a
// diagnostic).  A ParsePolicy decides what a failure does:
//
//   kStrict   — the first malformed record throws ParseError with an
//               actionable message (source, line, category, snippet); this
//               is the historical behaviour and the default.
//   kTolerant — the record is quarantined, parsing continues, and the
//               caller inspects the DataQualityReport afterwards.
//
// Thread-safety contract (DESIGN.md §"Data quality"): a ParseLog is NOT
// internally synchronised.  Parallel ingestion parses records on workers
// and reports them to the one log serially, in file order, so counters and
// quarantine order are bit-identical at any thread count.
#pragma once

#include <array>
#include <cstddef>
#include <iosfwd>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace cosmicdance::diag {

// The category enum lives in common/error.hpp (parsers below this layer
// throw categorised ParseErrors); re-export it so diag users can say
// diag::ErrorCategory.
using cosmicdance::ErrorCategory;
using cosmicdance::kErrorCategoryCount;

/// Category names, stable across report formats ("syntax", "checksum", ...).
[[nodiscard]] const char* to_string(ErrorCategory category);

/// What a parse failure does: throw (strict) or quarantine (tolerant).
enum class ParsePolicy { kStrict, kTolerant };

[[nodiscard]] const char* to_string(ParsePolicy policy);

/// Parse "strict" / "tolerant" (the CLI's --parse-policy values).
/// Throws ParseError on anything else.
[[nodiscard]] ParsePolicy parse_policy_from_string(const std::string& text);

/// Where a record came from, for quarantine diagnostics and strict-mode
/// error messages.
struct RecordRef {
  std::string source;    ///< file path, or "<text>" for in-memory input
  std::size_t line = 0;  ///< 1-based line number of the record's first line
};

/// One rejected record with everything needed to find and fix it.
struct QuarantinedRecord {
  std::string stage;  ///< ingestion stage: "tle", "omm", "wdc"
  std::string source;
  std::size_t line = 0;
  ErrorCategory category = ErrorCategory::kSyntax;
  std::string message;  ///< the underlying parse/validation error
  std::string snippet;  ///< offending text, truncated for readability
};

/// Per-stage accept/repair/quarantine counters.
struct StageCounters {
  std::size_t accepted = 0;
  std::size_t repaired = 0;
  std::array<std::size_t, kErrorCategoryCount> quarantined{};

  [[nodiscard]] std::size_t quarantined_total() const noexcept;
  void merge(const StageCounters& other) noexcept;
};

bool operator==(const StageCounters& a, const StageCounters& b) noexcept;

/// Aggregated quality summary for one ingestion run (see ParseLog::report).
struct DataQualityReport {
  ParsePolicy policy = ParsePolicy::kStrict;
  std::map<std::string, StageCounters> stages;
  std::vector<QuarantinedRecord> quarantined;

  [[nodiscard]] std::size_t total_accepted() const noexcept;
  [[nodiscard]] std::size_t total_repaired() const noexcept;
  [[nodiscard]] std::size_t total_quarantined() const noexcept;

  /// Fold another report in: per-stage counters add, quarantined records
  /// move over in argument order.  from_files builds its report as the
  /// Dst parse's, then the snapshot's TLE part, then the TLE tail's, which
  /// equals a full parse's report exactly because each part was produced
  /// in file order.  `other.policy` is expected to match and is ignored.
  void merge(DataQualityReport other);

  /// Quarantine detail as CSV-ready rows: a header row followed by one row
  /// per record (stage, source, line, category, message, snippet).
  [[nodiscard]] std::vector<std::vector<std::string>> quarantine_rows() const;

  /// Full report (policy, per-stage counters, quarantined records) as JSON.
  [[nodiscard]] std::string to_json() const;

  /// Human-readable summary plus the first few quarantined records.
  void print(std::ostream& out) const;
};

/// Record-level outcome accumulator threaded through the ingestion paths.
class ParseLog {
 public:
  explicit ParseLog(ParsePolicy policy = ParsePolicy::kStrict)
      : policy_(policy) {}

  [[nodiscard]] ParsePolicy policy() const noexcept { return policy_; }
  [[nodiscard]] bool tolerant() const noexcept {
    return policy_ == ParsePolicy::kTolerant;
  }

  /// Count records that parsed cleanly.
  void accept(const std::string& stage, std::size_t count = 1);

  /// Count records (or samples) recovered by a documented fix-up.
  void repair(const std::string& stage, std::size_t count = 1);

  /// Report a malformed record.  Strict policy: throws ParseError carrying
  /// `category` with source, line and snippet in the message.  Tolerant
  /// policy: quarantines the record and returns.
  void reject(const std::string& stage, ErrorCategory category,
              const std::string& message, const std::string& snippet,
              const RecordRef& where);

  [[nodiscard]] const std::map<std::string, StageCounters>& stages() const noexcept {
    return stages_;
  }
  [[nodiscard]] std::span<const QuarantinedRecord> quarantined() const noexcept {
    return quarantined_;
  }
  [[nodiscard]] std::size_t quarantined_count() const noexcept {
    return quarantined_.size();
  }

  /// Snapshot the accumulated state as a report.
  [[nodiscard]] DataQualityReport report() const;

 private:
  ParsePolicy policy_;
  std::map<std::string, StageCounters> stages_;
  std::vector<QuarantinedRecord> quarantined_;
};

/// Shorten record text for messages/reports (one line, bounded length).
[[nodiscard]] std::string snippet_of(const std::string& text,
                                     std::size_t max_length = 60);

}  // namespace cosmicdance::diag
