// Per-satellite TLE histories, the unit the pipeline ingests.
//
// Mirrors the paper's data-handling: fetch the current catalog numbers once,
// then accumulate historical TLEs per satellite, each history sorted by
// epoch with duplicate epochs dropped.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "diag/diag.hpp"
#include "tle/tle.hpp"

namespace cosmicdance::io {
class MappedFile;
}  // namespace cosmicdance::io

namespace cosmicdance::obs {
class Metrics;
}  // namespace cosmicdance::obs

namespace cosmicdance::tle {

/// Knobs for the text-ingestion entry points.
struct IngestOptions {
  /// Outcome accumulator; nullptr keeps the historical strict-throw path.
  diag::ParseLog* log = nullptr;
  /// Worker count for the parse (the exec convention: 0 = all hardware
  /// threads, 1 = serial).  Results and diagnostics are bit-identical at
  /// any value: shards are paired and parsed in parallel, their edges
  /// stitched serially, and the records committed in input order.
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
  /// Shard count for the fused scan and parse: 0 = auto (derived from the
  /// resolved worker count and the text size), 1 = one serial pass, n = n
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

/// The catalog's columns: one field of every record each, in the order
/// memory and a .cdsnap catalog stripe hold them.  Ten doubles (the Tle
/// members from epoch_jd to mean_motion_revday, in declaration order), the
/// three ints (ephemeris type, element set number, revolution number), the
/// record's index into the designator table (u32), and the classification
/// byte.  A record's catalog number is its satellite's.
inline constexpr std::size_t kColumnCount = 15;
inline constexpr std::array<std::size_t, kColumnCount> kColumnWidths = {
    8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 4, 4, 4, 4, 1};
inline constexpr std::size_t kDesignatorColumn = 13;
/// Bytes one record takes across the columns.
inline constexpr std::size_t kColumnRecordBytes = 97;

class TleCatalog;

namespace detail {
/// One block of memory holding every catalog column, `rows` rows each.
struct Columns {
  void* block = nullptr;
  std::size_t bytes = 0;
  std::size_t rows = 0;
  std::array<unsigned char*, kColumnCount> base{};
};
}  // namespace detail

/// One satellite's epoch-sorted history, read in place from the catalog's
/// columns.  Cheap to copy; valid until the catalog next changes or moves.
/// A whole record is built only when asked for (operator[], the iterator,
/// read()).
class HistoryView {
 public:
  HistoryView() = default;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] int catalog_number() const noexcept { return catalog_number_; }

  /// Record `i` as a whole Tle.
  [[nodiscard]] Tle operator[](std::size_t i) const {
    Tle record;
    read(i, record);
    return record;
  }
  [[nodiscard]] Tle front() const { return (*this)[0]; }
  [[nodiscard]] Tle back() const { return (*this)[size_ - 1]; }

  /// Record `i` into `out`, reusing its designator's buffer: for loops that
  /// build every record in turn.
  void read(std::size_t i, Tle& out) const;

  /// The columns the track layer reads, without building records.
  [[nodiscard]] std::span<const double> epoch_jd() const noexcept;
  [[nodiscard]] std::span<const double> mean_motion_revday() const noexcept;
  [[nodiscard]] std::span<const double> bstar() const noexcept;

  /// Column `column`'s bytes of these records (kColumnWidths[column] per
  /// record); the designator column holds catalog-wide table indices.
  [[nodiscard]] std::span<const unsigned char> column_bytes(
      std::size_t column) const noexcept;

  /// Walks the records oldest first, building each as a Tle.
  class iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = Tle;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Tle;

    iterator() = default;
    Tle operator*() const { return (*view_)[index_]; }
    iterator& operator++() {
      ++index_;
      return *this;
    }
    iterator operator++(int) {
      iterator before = *this;
      ++index_;
      return before;
    }
    bool operator==(const iterator& other) const noexcept {
      return index_ == other.index_;
    }

   private:
    friend class HistoryView;
    iterator(const HistoryView* view, std::size_t index)
        : view_(view), index_(index) {}
    const HistoryView* view_ = nullptr;
    std::size_t index_ = 0;
  };
  [[nodiscard]] iterator begin() const { return {this, 0}; }
  [[nodiscard]] iterator end() const { return {this, size_}; }

 private:
  friend class TleCatalog;
  HistoryView(const TleCatalog* catalog, int catalog_number, std::size_t begin,
              std::size_t size)
      : catalog_(catalog),
        catalog_number_(catalog_number),
        begin_(begin),
        size_(size) {}

  const TleCatalog* catalog_ = nullptr;
  int catalog_number_ = 0;
  std::size_t begin_ = 0;  ///< first record's row in the columns
  std::size_t size_ = 0;
};

/// A collection of TLEs keyed by NORAD catalog number, stored as columns.
///
/// Every field of every record lives in one catalog-wide array per column
/// (kColumnWidths); each satellite owns a contiguous range of rows, its
/// records epoch-sorted at the front and spare rows behind them.  The
/// arrays share one block of memory, so the catalog frees in one unmap.
///
/// Growth rule (DESIGN.md §13): every layout puts the satellites in
/// catalog-number order, each with records / 64 + 16 spare rows, and
/// leaves as many free rows behind them.  Every call that adds records
/// (add(), add_all, the text parse, adopt_histories) is one merge: a
/// satellite it touches stays in its range while its history fits (an
/// out-of-order record is merged in place), one it adds nothing to is
/// left alone, and a new or outgrown one moves to the free rows with room
/// for twice its records plus 16.  Only when the free rows run out is the
/// catalog laid out again.  So a record costs amortised O(1) row copies,
/// and an out-of-order one a shift of the records after it.
class TleCatalog {
 public:
  TleCatalog() = default;
  TleCatalog(const TleCatalog& other);
  TleCatalog& operator=(const TleCatalog& other);
  TleCatalog(TleCatalog&& other) noexcept;
  TleCatalog& operator=(TleCatalog&& other) noexcept;
  ~TleCatalog();

  /// Insert a record, keeping the per-satellite history epoch-sorted.
  /// Records with an epoch within ~1 second of an existing record for the
  /// same satellite are treated as duplicates and dropped (returns false).
  /// add_all() of this one record, so its designator is interned either way.
  bool add(const Tle& tle);

  /// add() every record in order — the same catalog, duplicates dropped the
  /// same way — with the columns laid out at most once.  Validates every
  /// record first and throws ValidationError, adding none, when one fails.
  /// Returns the number added.
  std::size_t add_all(std::span<const Tle> records);

  /// Install satellites' complete epoch-sorted histories in one merge:
  /// the bulk-build path a producer of whole histories
  /// (the simulator) uses instead of add() per record.  Each history must
  /// be non-empty, belong entirely to one satellite, be strictly
  /// epoch-sorted with no two records inside the duplicate window, and no
  /// satellite may be in two histories or already present; any violation
  /// throws ValidationError and leaves the catalog unchanged.  Checks and
  /// copies over `num_threads` workers (the exec convention).  The result
  /// is identical to add() calls in history order.
  void adopt_histories(std::vector<std::vector<Tle>> histories,
                       int num_threads = 1);

  /// Parse and add records from raw text in 2-line or 3-line (name line,
  /// optionally "0 "-prefixed) format.  Returns the number added; throws
  /// ParseError on malformed lines.  Takes a view that only needs to stay
  /// alive for the duration of the call; its memory is never advised.
  std::size_t add_from_text(std::string_view text);

  /// As above with diagnostics and parallel parsing.  Under a tolerant
  /// ParseLog malformed records are quarantined (stage "tle") and parsing
  /// continues; under a strict (or absent) log the first malformed record
  /// throws ParseError naming source, line and category, with every record
  /// before it added.  Each shard of the text pairs and parses its lines
  /// straight into its rows of one staging block; the staged rows then go
  /// into the columns as slices of each satellite's runs (add_all's merge,
  /// over the workers).  DESIGN.md §18.
  std::size_t add_from_text(std::string_view text, const IngestOptions& options);

  /// As above over the bytes of `file` from byte `offset` on (an append's
  /// tail, or 0), dropping each shard's pages once it is parsed
  /// (MappedFile::drop_pages), so the input is not resident beside the
  /// staging block and the catalog.  Throws std::out_of_range when
  /// `offset` is past the end of the file.
  std::size_t add_from_text(const io::MappedFile& file, std::size_t offset,
                            const IngestOptions& options);

  /// Load a file via add_from_text over its mapping (mmap-backed when
  /// available).  Throws IoError / ParseError.
  std::size_t add_from_file(const std::string& path);

  /// As above with diagnostics and parallel parsing.
  std::size_t add_from_file(const std::string& path, const IngestOptions& options);

  /// Sorted catalog numbers present.
  [[nodiscard]] std::vector<int> satellites() const;

  /// Epoch-sorted history for a satellite (empty when unknown).
  [[nodiscard]] HistoryView history(int catalog_number) const;

  [[nodiscard]] std::size_t satellite_count() const noexcept { return slots_.size(); }
  [[nodiscard]] std::size_t record_count() const noexcept { return record_count_; }
  [[nodiscard]] bool empty() const noexcept { return slots_.empty(); }

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

  // ---- column access for the .cdsnap codec (DESIGN.md §13) -----------------

  /// The designator table the designator column indexes.
  [[nodiscard]] std::size_t designator_count() const noexcept {
    return designators_.size();
  }
  [[nodiscard]] const std::string& designator(std::uint32_t index) const {
    return designators_.at(index);
  }
  /// The table index of `designator`, adding it when new.
  std::uint32_t intern_designator(std::string_view designator);

  /// Replace the contents with satellites `ids` (strictly ascending) of
  /// `records[i]` zero-filled records each, laid out once, for a decoder to
  /// fill through column_bytes() and then check with check_history().
  /// Keeps the designator table.  Throws ValidationError on unsorted or
  /// repeated ids or an empty history.
  void lay_out(std::span<const int> ids, std::span<const std::size_t> records);

  /// Writable bytes of column `column` of satellite `catalog_number`'s
  /// records.  Different satellites' bytes never overlap, so workers may
  /// fill different satellites at once.
  [[nodiscard]] std::span<unsigned char> column_bytes(int catalog_number,
                                                      std::size_t column);

  /// adopt_histories' checks on one satellite's records in place: each
  /// record's validate(), strict epoch order outside the duplicate window,
  /// and a designator index inside the table.  Throws ValidationError.
  void check_history(int catalog_number) const;

 private:
  friend class HistoryView;

  /// A satellite's rows: records in [begin, begin + size), spare rows up to
  /// begin + capacity.
  struct Slot {
    std::size_t begin = 0;
    std::size_t size = 0;
    std::size_t capacity = 0;
  };

  /// Give every slot of `slots` its place in a fresh layout (catalog-number
  /// order, size / 64 + 16 spare rows each) and allocate columns for it
  /// with as many free rows again; `used_rows` gets the laid-out rows.
  static detail::Columns lay_out_slots(std::map<int, Slot>& slots,
                                       std::size_t& used_rows);
  /// Install `columns` and `slots`, freeing the old block.
  void install(detail::Columns columns, std::map<int, Slot> slots, std::size_t used_rows);
  /// One satellite's records in a merge (catalog.cpp).
  struct Group;
  /// Records grouped by satellite in insertion order: `each(add)` calls
  /// `add(index, catalog_number, designator)` once per record, in order;
  /// each designator is interned on first use.
  template <typename Each>
  std::vector<Group> group_records(const Each& each);
  /// Merge grouped records into the columns as if added one after another
  /// (the growth rule above); returns the number added.  `source.epoch(i)`
  /// reads record i's epoch and `source.store_run(target, row, first, last,
  /// designator)` writes records [first, last) to rows `row` on of `target`.
  template <typename Source>
  std::size_t merge(std::vector<Group>& groups, const Source& source,
                    int num_threads);
  /// The text parse behind add_from_text; `mapping`, when given, is the
  /// file `text` starts `offset` bytes into.
  std::size_t parse_text(std::string_view text, const IngestOptions& options,
                         const io::MappedFile* mapping, std::size_t offset);

  std::map<int, Slot> slots_;
  std::size_t record_count_ = 0;
  /// Rows below it hold slots; merge() places moved satellites from here up.
  std::size_t used_rows_ = 0;
  detail::Columns columns_;
  std::vector<std::string> designators_;
  std::map<std::string, std::uint32_t, std::less<>> designator_index_;
};

}  // namespace cosmicdance::tle
