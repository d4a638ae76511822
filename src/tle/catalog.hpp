// Per-satellite TLE histories, the unit the pipeline ingests.
//
// Mirrors the paper's data-handling: fetch the current catalog numbers once,
// then accumulate historical TLEs per satellite, each history sorted by
// epoch with duplicate epochs dropped.
#pragma once

#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "diag/diag.hpp"
#include "tle/tle.hpp"

namespace cosmicdance::obs {
class Metrics;
}  // namespace cosmicdance::obs

namespace cosmicdance::tle {

/// Knobs for the text-ingestion entry points.
struct IngestOptions {
  /// Outcome accumulator; nullptr keeps the historical strict-throw path.
  diag::ParseLog* log = nullptr;
  /// Worker count for record parsing (the exec convention: 0 = all
  /// hardware threads, 1 = serial).  Results and diagnostics are
  /// bit-identical at any value — records are split serially, parsed in
  /// parallel, and committed in input order.
  int num_threads = 1;
  /// Label for diagnostics (file path; defaults to "<text>" / the path).
  std::string source;
  /// Optional observability registry (tle.* counters, ingest phase wall
  /// time); nullptr disables collection.
  obs::Metrics* metrics = nullptr;
  /// 1-based file line number of the first line of the text.  The append
  /// fast path parses only a tail slice of a grown file and needs its
  /// diagnostics to cite absolute line numbers.
  std::size_t first_line = 1;
  /// Shard count for the pass-1 pairing scan: 0 = auto (derived from the
  /// resolved worker count and the text size), 1 = one serial scan, n = n
  /// shards.  Outputs are bit-identical at every value — shard boundaries
  /// are resynchronised to line starts and the edges stitched serially
  /// (DESIGN.md §18); the knob exists so differential tests can pin shard
  /// geometry independently of the thread count.
  int num_shards = 0;
};

/// Two records of one satellite closer than this (~1 second) are
/// duplicates: add() keeps the one it was given first.
inline constexpr double kDuplicateEpochDays = 1.0 / 86400.0;

/// True when `text` ends at a clean pairing boundary for append-style
/// growth: its last non-empty line is not a TLE line 1 still awaiting its
/// line 2.  (Blank lines do not clear the pairing scanner's pending
/// state, so only the last non-empty line matters.)  When false, a
/// dangling line 1 was quarantined as structural when the text was parsed
/// alone, but appended bytes could retroactively pair with it — so an
/// incremental parse of just the appended tail would diverge from a full
/// reparse, and callers must fall back to reparsing from scratch.
[[nodiscard]] bool append_boundary_clean(std::string_view text);

/// A collection of TLEs keyed by NORAD catalog number.
class TleCatalog {
 public:
  TleCatalog() = default;

  /// Insert a record, keeping the per-satellite history epoch-sorted.
  /// Records with an epoch within ~1 second of an existing record for the
  /// same satellite are treated as duplicates and dropped (returns false).
  bool add(const Tle& tle);

  /// Install a satellite's complete epoch-sorted history in one move — the
  /// bulk-rebuild path snapshot deserialisation uses instead of replaying
  /// add() per record.  The history must be non-empty, belong entirely to
  /// `catalog_number`, be strictly epoch-sorted with no two records inside
  /// the duplicate window, and the satellite must not already be present;
  /// any violation throws ValidationError (callers treat that as snapshot
  /// corruption and reparse).  The rebuilt catalog is structurally
  /// identical to one built by add() calls in history order.
  void adopt_history(int catalog_number, std::vector<Tle> history);

  /// Move every satellite of `other` into this catalog without touching
  /// its records — how the snapshot decoder joins catalog stripes that its
  /// workers built with adopt_history.  Throws ValidationError when a
  /// satellite is in both, leaving both catalogs unspecified.
  void absorb(TleCatalog&& other);

  /// Parse and add records from raw text in 2-line or 3-line (name line,
  /// optionally "0 "-prefixed) format.  Returns the number added; throws
  /// ParseError on malformed lines.  Takes a view so the zero-copy path can
  /// pass a MappedFile's contents; the text only needs to stay alive for
  /// the duration of the call.
  std::size_t add_from_text(std::string_view text);

  /// As above with diagnostics and parallel parsing.  Under a tolerant
  /// ParseLog malformed records are quarantined (stage "tle") and parsing
  /// continues; under a strict (or absent) log the first malformed record
  /// throws ParseError naming source, line and category.
  std::size_t add_from_text(std::string_view text, const IngestOptions& options);

  /// Load a file via add_from_text (mmap-backed when available).  Throws
  /// IoError / ParseError.
  std::size_t add_from_file(const std::string& path);

  /// As above with diagnostics and parallel parsing.
  std::size_t add_from_file(const std::string& path, const IngestOptions& options);

  /// Sorted catalog numbers present.
  [[nodiscard]] std::vector<int> satellites() const;

  /// Epoch-sorted history for a satellite (empty when unknown).
  [[nodiscard]] std::span<const Tle> history(int catalog_number) const;

  [[nodiscard]] std::size_t satellite_count() const noexcept { return tles_.size(); }
  [[nodiscard]] std::size_t record_count() const noexcept { return record_count_; }
  [[nodiscard]] bool empty() const noexcept { return tles_.empty(); }

  /// Latest epoch across all records.  Throws ValidationError when the
  /// catalog is empty.
  [[nodiscard]] double last_epoch_jd() const;

  /// Serialise the full catalog back to 2-line text (satellite order, then
  /// history order).  Each satellite's records are formatted over
  /// `num_threads` workers (the exec convention: 0 = all hardware threads,
  /// 1 = serial) straight into their final offsets; the text, and the
  /// ValidationError thrown for the first unformattable record, are the
  /// same at every thread count (DESIGN.md §19).
  [[nodiscard]] std::string to_text(int num_threads = 1) const;

  /// Refresh-interval samples (hours between consecutive records of the
  /// same satellite), pooled over all satellites — the paper reports this
  /// ranges <1 h to 154 h with a ~12 h mean.
  [[nodiscard]] std::vector<double> refresh_intervals_hours() const;

 private:
  /// Sorted-insert into one history with duplicate-window dropping (the
  /// shared core of add() and the ingest commit loop; bumps record_count_).
  bool insert_record(std::vector<Tle>& history, const Tle& tle);

  std::map<int, std::vector<Tle>> tles_;
  std::size_t record_count_ = 0;
};

}  // namespace cosmicdance::tle
