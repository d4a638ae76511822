#include "tle/catalog.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <new>
#include <optional>
#include <span>
#include <string_view>
#include <utility>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include <sys/mman.h>

#include "common/error.hpp"
#include "exec/parallel_for.hpp"
#include "exec/thread_pool.hpp"
#include "io/file.hpp"
#include "obs/obs.hpp"

namespace cosmicdance::tle {
namespace {

constexpr const char* kStage = "tle";

bool looks_like_tle_line(std::string_view line, char number) {
  return line.size() == 69 && line[0] == number && line[1] == ' ';
}

#if defined(__SSE2__)
/// True when any of the 69 bytes at `p` is a newline.  Five overlapping
/// 16-byte compares (offsets 0/16/32/48/53) cover the range exactly; the
/// scan's fast path uses this to take a standard-width TLE line without a
/// memchr call per line.
inline bool has_newline_69(const char* p) {
  const __m128i nl = _mm_set1_epi8('\n');
  const auto load = [](const char* q) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
  };
  __m128i hit = _mm_cmpeq_epi8(load(p), nl);
  hit = _mm_or_si128(hit, _mm_cmpeq_epi8(load(p + 16), nl));
  hit = _mm_or_si128(hit, _mm_cmpeq_epi8(load(p + 32), nl));
  hit = _mm_or_si128(hit, _mm_cmpeq_epi8(load(p + 48), nl));
  hit = _mm_or_si128(hit, _mm_cmpeq_epi8(load(p + 53), nl));
  return _mm_movemask_epi8(hit) != 0;
}
#endif

// ---- the fused scan and parse -----------------------------------------------
//
// The text splits into shards at line starts, and each shard pairs its own
// lines and parses every record straight into its rows of one staging
// block.  Pairing is almost embarrassingly parallel: every line either
// starts a record (a line 1), completes one (a line 2), or clears the
// pairing state (anything else).  The only cross-shard coupling is the
// pending line 1 a shard may carry into its successor, and that state can
// influence the handling of exactly one line, the successor's *first*
// non-empty one.  Each shard is therefore scanned assuming no carried
// state, remembering how its first non-empty line was classified; a serial
// stitch afterwards replays the carried state across the shard edges,
// patches that one line's outcome and parses the record whose lines
// straddle the edge.

// Shard byte boundaries: even splits advanced to the next line start, so
// every line lives wholly inside one shard.  Boundaries are a pure function
// of (text size, shard count), never of thread count or scheduling.
std::vector<std::size_t> shard_starts(std::string_view text,
                                      std::size_t shard_count) {
  std::vector<std::size_t> starts;
  starts.reserve(shard_count);
  starts.push_back(0);
  for (std::size_t i = 1; i < shard_count; ++i) {
    const std::size_t raw = text.size() * i / shard_count;
    const std::size_t newline = text.find('\n', raw);
    std::size_t start =
        newline == std::string_view::npos ? text.size() : newline + 1;
    if (start < starts.back()) start = starts.back();
    starts.push_back(start);
  }
  return starts;
}

std::size_t resolve_shard_count(std::string_view text,
                                const IngestOptions& options) {
  if (options.num_shards > 0) {
    return static_cast<std::size_t>(options.num_shards);
  }
  const std::size_t workers = exec::resolve_thread_count(options.num_threads);
  if (workers <= 1) return 1;
  // A few shards per worker evens out skew from uneven reject density; the
  // floor keeps tiny inputs from paying stitch overhead per few lines.
  constexpr std::size_t kMinShardBytes = 64 * 1024;
  const std::size_t by_size = text.size() / kMinShardBytes + 1;
  return std::min(workers * 4, by_size);
}


// ---- the column block -------------------------------------------------------

using detail::Columns;

/// The Tle members the double and int columns hold, in column order.
constexpr double Tle::*kDoubleFields[] = {
    &Tle::epoch_jd,        &Tle::mean_motion_dot,    &Tle::mean_motion_ddot,
    &Tle::bstar,           &Tle::inclination_deg,    &Tle::raan_deg,
    &Tle::eccentricity,    &Tle::arg_perigee_deg,    &Tle::mean_anomaly_deg,
    &Tle::mean_motion_revday};
constexpr int Tle::*kIntFields[] = {&Tle::ephemeris_type,
                                    &Tle::element_set_number, &Tle::rev_number};
constexpr std::size_t kIntColumn0 = std::size(kDoubleFields);
constexpr std::size_t kClassificationColumn = kDesignatorColumn + 1;
static_assert(kIntColumn0 + std::size(kIntFields) == kDesignatorColumn);
static_assert(kClassificationColumn + 1 == kColumnCount);

constexpr std::size_t column_bytes_sum() {
  std::size_t bytes = 0;
  for (const std::size_t width : kColumnWidths) bytes += width;
  return bytes;
}
static_assert(column_bytes_sum() == kColumnRecordBytes);

/// Blocks from this size up are mapped on their own and start on a
/// huge-page boundary: their laid-out rows then fault in 2 MiB at a time,
/// and the block frees in one munmap.
constexpr std::size_t kHugePage = std::size_t{2} << 20;

#if defined(MADV_HUGEPAGE)
/// Advise the whole huge pages inside [begin, end) as huge pages.
void advise_huge_pages(const unsigned char* begin, const unsigned char* end) {
  const auto at = [](const unsigned char* p) {
    return reinterpret_cast<std::uintptr_t>(p);
  };
  const std::uintptr_t from = (at(begin) + kHugePage - 1) / kHugePage * kHugePage;
  const std::uintptr_t to = at(end) / kHugePage * kHugePage;
  if (from < to) {
    static_cast<void>(
        ::madvise(reinterpret_cast<void*>(from), to - from, MADV_HUGEPAGE));
  }
}
#endif

/// A block of `laid_out` + `free_rows` rows of the catalog columns, plus
/// `extra_width` bytes a row for one more column behind them
/// (extra_column()).  Only huge pages inside the laid-out rows are advised:
/// a huge page faults in whole, so one reaching into a column's free rows
/// would make them resident (DESIGN.md §13).
Columns allocate_columns(std::size_t laid_out, std::size_t free_rows,
                         std::size_t extra_width = 0) {
  Columns columns;
  const std::size_t rows = laid_out + free_rows;
  columns.rows = rows;
  if (rows == 0) return columns;
  const std::size_t bytes = rows * (kColumnRecordBytes + extra_width);
  unsigned char* block = nullptr;
  if (bytes >= kHugePage) {
    // Map a huge page more than needed and trim both ends, so the block
    // starts on a huge-page boundary.
    const std::size_t page = 4096;
    const std::size_t mapped = (bytes + page - 1) / page * page;
    void* raw = ::mmap(nullptr, mapped + kHugePage, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (raw == MAP_FAILED) throw std::bad_alloc();
    auto* const first = static_cast<unsigned char*>(raw);
    const std::uintptr_t at = reinterpret_cast<std::uintptr_t>(first);
    const std::size_t head = (kHugePage - at % kHugePage) % kHugePage;
    if (head > 0) ::munmap(first, head);
    block = first + head;
    const std::size_t tail = kHugePage - head;
    if (tail > 0) ::munmap(block + mapped, tail);
    columns.bytes = mapped;
  }
  if (block == nullptr) {
    block = static_cast<unsigned char*>(std::calloc(bytes, 1));
    if (block == nullptr) throw std::bad_alloc();
  }
  columns.block = block;
  for (std::size_t c = 0; c < kColumnCount; ++c) {
    columns.base[c] = block;
    block += rows * kColumnWidths[c];
  }
#if defined(MADV_HUGEPAGE)
  if (columns.bytes > 0 && free_rows == 0) {
    advise_huge_pages(columns.base[0], columns.base[0] + columns.bytes);
  } else if (columns.bytes > 0) {
    for (std::size_t c = 0; c < kColumnCount; ++c) {
      const unsigned char* const column = columns.base[c];
      advise_huge_pages(column, column + laid_out * kColumnWidths[c]);
    }
  }
#endif
  return columns;
}

/// The column allocate_columns() placed behind the catalog columns.
unsigned char* extra_column(const Columns& columns) {
  return columns.base[kColumnCount - 1] + columns.rows * kColumnWidths.back();
}

void release_columns(Columns& columns) noexcept {
  if (columns.block == nullptr) return;
  if (columns.bytes > 0) {
    ::munmap(columns.block, columns.bytes);
  } else {
    std::free(columns.block);
  }
  columns = Columns{};
}

/// Write `tle` into row `row`.
void store(const Columns& columns, std::size_t row, const Tle& tle,
           std::uint32_t designator) {
  for (std::size_t c = 0; c < kIntColumn0; ++c) {
    std::memcpy(columns.base[c] + row * 8, &(tle.*kDoubleFields[c]), 8);
  }
  for (std::size_t c = 0; c < std::size(kIntFields); ++c) {
    const auto value = static_cast<std::int32_t>(tle.*kIntFields[c]);
    std::memcpy(columns.base[kIntColumn0 + c] + row * 4, &value, 4);
  }
  std::memcpy(columns.base[kDesignatorColumn] + row * 4, &designator, 4);
  columns.base[kClassificationColumn][row] =
      static_cast<unsigned char>(tle.classification);
}

/// Copy `count` rows from row `from` of `source` to row `to` of `target`;
/// the ranges may overlap inside one block.
void copy_rows(const Columns& source, std::size_t from, const Columns& target,
               std::size_t to, std::size_t count) {
  if (count == 0) return;
  for (std::size_t c = 0; c < kColumnCount; ++c) {
    const std::size_t width = kColumnWidths[c];
    std::memmove(target.base[c] + to * width, source.base[c] + from * width,
                 count * width);
  }
}

template <typename T>
T load(const Columns& columns, std::size_t column, std::size_t row) {
  T value;
  std::memcpy(&value, columns.base[column] + row * sizeof(T), sizeof(T));
  return value;
}

const double* epoch_column(const Columns& columns) {
  return reinterpret_cast<const double*>(columns.base[0]);
}

/// Spare rows a laid-out satellite gets beyond its records: a 64th more
/// plus 16, so a daily append (one or two records per satellite) lands in
/// place (DESIGN.md §13).
constexpr std::size_t slack_for(std::size_t records) { return records / 64 + 16; }

/// True when a record at `epoch` lands past the end of a history whose
/// last epoch is `last`: newer, and outside its duplicate window.
bool lands_after(double last, double epoch) {
  return epoch > last && !(std::fabs(last - epoch) < kDuplicateEpochDays);
}

/// Where a record at `epoch` goes in a history of `size` records
/// whose epochs `epoch_at(i)` reads, or nullopt when a record present lies
/// inside its duplicate window.  The records present are at least the
/// window apart, so only the two neighbours of the insert point can.
template <typename EpochAt>
std::optional<std::size_t> insert_position(std::size_t size, double epoch,
                                           const EpochAt& epoch_at) {
  if (size == 0 || lands_after(epoch_at(size - 1), epoch)) return size;
  std::size_t lo = 0;  // the first record not older than `epoch`
  std::size_t hi = size;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (epoch_at(mid) < epoch) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < size && std::fabs(epoch_at(lo) - epoch) < kDuplicateEpochDays) {
    return std::nullopt;
  }
  if (lo > 0 && std::fabs(epoch_at(lo - 1) - epoch) < kDuplicateEpochDays) {
    return std::nullopt;
  }
  return lo;
}

// ---- the staging block and the shard parse -----------------------------------

/// Staging rows a shard of `bytes` bytes may fill: a record spans at least
/// 139 bytes (two 69-character lines and the newline between them), and
/// one more may be carried in across the shard's end.
constexpr std::size_t staging_rows(std::size_t bytes) { return bytes / 139 + 2; }

/// The parse's staging block: the catalog columns, then each row's catalog
/// number (kColumnRecordBytes + 4 bytes a row).  Rows are written only
/// where records land, so rows never reached cost no memory.
struct Staging {
  explicit Staging(std::size_t rows)
      : columns(allocate_columns(rows, 0, 4)), ids(extra_column(columns)) {}
  ~Staging() { release_columns(columns); }
  Staging(const Staging&) = delete;
  Staging& operator=(const Staging&) = delete;

  [[nodiscard]] int id(std::size_t row) const {
    std::int32_t id = 0;
    std::memcpy(&id, ids + row * 4, 4);
    return id;
  }

  Columns columns;
  unsigned char* ids = nullptr;
};

// How a shard's first non-empty line would be handled by the serial scan —
// the only decision that depends on the pairing state carried in.
enum class FirstLine : std::uint8_t {
  kNone,        // shard has no non-empty lines: carried state passes through
  kLine1,       // a well-formed line 1: overwrites any carried pending
  kLine2,       // a well-formed line 2: pairs with a carried pending line 1
  kMalformed2,  // "2 "-lead line of the wrong length: rejects a carried pending
  kOther,       // a name line: silently clears any carried pending
};

/// A record that failed to parse, or a line the pairing could not place.
/// It carries how many records its shard staged before it, so the report
/// can batch the accepts between rejects and a strict-mode throw can commit
/// exactly the records before the one it reports.
struct Reject {
  std::size_t line = 0;  // 1-based; local to the shard until the stitch
  std::size_t staged_before = 0;
  ErrorCategory category = ErrorCategory::kSyntax;
  std::string message;
  std::string snippet;
};

/// One shard's outcome.  Its records fill rows [first_row, first_row + rows)
/// of the staging block, their designator column indexing `designators`.
struct ShardParse {
  std::size_t first_row = 0;
  std::size_t rows = 0;
  std::size_t paired = 0;      // records paired, parsed or not
  std::size_t structural = 0;  // structural rejects in `rejects`
  std::vector<Reject> rejects;  // file order, from rejects[skip] on
  std::size_t skip = 0;
  std::vector<std::string> designators;  // first-use order
  std::map<std::string, std::uint32_t, std::less<>> designator_index;
  std::uint32_t last_designator = 0;
  std::size_t lines = 0;       // count of lines starting in this shard
  std::string pending_line1;   // unpaired line 1 left at the shard's end
  std::size_t pending_line = 0;  // its line number
  std::string first_text;      // the first non-empty line, if a "2 " one
  std::size_t first_line = 0;  // its line number
  FirstLine first = FirstLine::kNone;

  std::uint32_t designator_of(std::string_view designator) {
    if (!designators.empty() && designators[last_designator] == designator) {
      return last_designator;
    }
    const auto it = designator_index.find(designator);
    if (it != designator_index.end()) return last_designator = it->second;
    last_designator = static_cast<std::uint32_t>(designators.size());
    designators.emplace_back(designator);
    designator_index.emplace(std::string(designator), last_designator);
    return last_designator;
  }

  void reject_line(std::size_t line, ErrorCategory category,
                   const char* message, std::string_view snippet) {
    ++structural;
    rejects.push_back(Reject{line, rows, category, message, std::string(snippet)});
  }

  /// Parse the record on `line` into the next row, or keep why it failed.
  void stage_record(const Staging& staging, std::string_view line1,
                    std::string_view line2, std::size_t line) {
    ++paired;
    Tle tle;
    try {
      tle = parse_tle(line1, line2);
    } catch (const ParseError& error) {
      rejects.push_back(
          Reject{line, rows, error.category(), error.what(), std::string(line1)});
      return;
    } catch (const ValidationError& error) {
      rejects.push_back(
          Reject{line, rows, ErrorCategory::kRange, error.what(), std::string(line1)});
      return;
    }
    const std::size_t row = first_row + rows++;
    store(staging.columns, row, tle, designator_of(tle.international_designator));
    const auto id = static_cast<std::int32_t>(tle.catalog_number);
    std::memcpy(staging.ids + row * 4, &id, 4);
  }
};

// Scan and parse one shard exactly like the serial loop, with local line
// numbers and no pairing state carried in.  When the first non-empty line
// is a lone line 2 it is rejected here (rejects.front()) just as a
// from-zero scan would; the stitch withdraws that reject when the previous
// shard carries a pending line 1 across the edge.
//
// When `text` lies `at` bytes into `mapping`, its pages are dropped every
// 4 MiB as the cursor moves on and all of them at the end, so no shard
// keeps its input resident.  A dropped page read again faults back in with
// the file's bytes (the mapping is read-only and private), but it may map
// its whole page-cache folio, up to 2 MiB, back with it.  So the drops
// trail the cursor by a window (a pending line 1 is read again with its
// line 2) and leave the shard's first window, which the previous shard's
// last line may share a folio with, to the end.
void parse_shard(std::string_view text, const Staging& staging,
                 ShardParse& shard, const io::MappedFile* mapping,
                 std::size_t at) {
  constexpr std::size_t kWindow = std::size_t{4} << 20;
  std::size_t dropped = kWindow;  // the next drop starts here
  std::string_view pending_line1;
  std::string_view first_view;
  for (std::size_t pos = 0; pos < text.size();) {
    if (mapping != nullptr && pos >= dropped + 2 * kWindow) {
      mapping->drop_pages(at + dropped, at + pos - kWindow);
      dropped = pos - kWindow;
    }
    std::size_t eol;
#if defined(__SSE2__)
    // Standard-width fast path: a 69-char line ends exactly at pos+69, and
    // the vector check proves no earlier newline, so the general search is
    // skipped for the overwhelmingly common case.
    if (pos + 69 < text.size() && text[pos + 69] == '\n' &&
        !has_newline_69(text.data() + pos)) {
      eol = pos + 69;
    } else
#endif
    {
      eol = text.find('\n', pos);
    }
    std::string_view line = eol == std::string_view::npos
                                ? text.substr(pos)
                                : text.substr(pos, eol - pos);
    pos = eol == std::string_view::npos ? text.size() : eol + 1;
    ++shard.lines;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;
    const bool is_first = shard.first == FirstLine::kNone;
    if (is_first) {
      first_view = line;
      shard.first_line = shard.lines;
      shard.first = FirstLine::kOther;
    }
    if (looks_like_tle_line(line, '1')) {
      if (is_first) shard.first = FirstLine::kLine1;
      pending_line1 = line;
      shard.pending_line = shard.lines;
      continue;
    }
    if (looks_like_tle_line(line, '2')) {
      if (is_first) shard.first = FirstLine::kLine2;
      if (pending_line1.empty()) {
        shard.reject_line(shard.lines, ErrorCategory::kStructure,
                          "TLE line 2 without preceding line 1", line);
        continue;
      }
      shard.stage_record(staging, pending_line1, line, shard.pending_line);
      pending_line1 = {};
      continue;
    }
    // With a line 1 pending, the next line must be its line 2: a "2 "-lead
    // line of the wrong length is a truncated/corrupted record, not a
    // satellite name (name lines only precede line 1 in 3-line format).
    if (line.size() >= 2 && line[0] == '2' && line[1] == ' ') {
      if (is_first) shard.first = FirstLine::kMalformed2;
      if (!pending_line1.empty()) {
        shard.reject_line(shard.lines, ErrorCategory::kSyntax,
                          "malformed TLE line 2 (wrong length)", line);
        pending_line1 = {};
        continue;
      }
    }
    // Anything else is a satellite-name line (3-line format); ignore.
    pending_line1 = {};
  }
  // The stitch reads these after the shard's pages may have been dropped.
  shard.pending_line1 = pending_line1;
  if (shard.first == FirstLine::kLine2 || shard.first == FirstLine::kMalformed2) {
    shard.first_text = first_view;
  }
  if (mapping != nullptr) mapping->drop_pages(at, at + text.size());
}

/// The staged rows as merge() reads them.  A run of one satellite's rows
/// sharing a designator lands as one slice copy per column.
struct StagedSource {
  const Columns& staging;

  [[nodiscard]] double epoch(std::size_t row) const {
    return epoch_column(staging)[row];
  }
  void store_run(const Columns& target, std::size_t row, std::size_t first,
                 std::size_t last, std::uint32_t designator) const {
    copy_rows(staging, first, target, row, last - first);
    unsigned char* const at = target.base[kDesignatorColumn] + row * 4;
    for (std::size_t k = 0; k < last - first; ++k) {
      std::memcpy(at + k * 4, &designator, 4);
    }
  }
};

/// Whole records as merge() reads them: `record_at(i)` is record i.
template <typename RecordAt>
struct TleSource {
  RecordAt record_at;

  [[nodiscard]] double epoch(std::size_t i) const {
    return record_at(i)->epoch_jd;
  }
  void store_run(const Columns& target, std::size_t row, std::size_t first,
                 std::size_t last, std::uint32_t designator) const {
    for (std::size_t i = first; i < last; ++i) {
      store(target, row++, *record_at(i), designator);
    }
  }
};

}  // namespace

bool append_boundary_clean(std::string_view text) {
  // The pairing scan's pending-line-1 state at end of input depends only
  // on the last non-empty line: every non-empty line either sets it (a
  // line 1) or clears it (a line 2, a malformed "2 "-lead line, or a name
  // line), and blank lines leave it untouched.  Walk backwards to that
  // line instead of replaying the whole scan.
  std::size_t end = text.size();
  while (end > 0) {
    const std::size_t newline = text.rfind('\n', end - 1);
    const std::size_t line_start =
        newline == std::string_view::npos ? 0 : newline + 1;
    std::string_view line = text.substr(line_start, end - line_start);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (!line.empty()) return !looks_like_tle_line(line, '1');
    if (line_start == 0) break;
    end = line_start - 1;
  }
  return true;  // empty (or all-blank) text has nothing pending
}

// ---- the columnar store ------------------------------------------------------

void HistoryView::read(std::size_t i, Tle& out) const {
  const Columns& columns = catalog_->columns_;
  const std::size_t row = begin_ + i;
  out.catalog_number = catalog_number_;
  for (std::size_t c = 0; c < kIntColumn0; ++c) {
    out.*kDoubleFields[c] = load<double>(columns, c, row);
  }
  for (std::size_t c = 0; c < std::size(kIntFields); ++c) {
    out.*kIntFields[c] = load<std::int32_t>(columns, kIntColumn0 + c, row);
  }
  out.international_designator = catalog_->designators_[load<std::uint32_t>(
      columns, kDesignatorColumn, row)];
  out.classification =
      static_cast<char>(columns.base[kClassificationColumn][row]);
}

std::span<const double> HistoryView::epoch_jd() const noexcept {
  if (size_ == 0) return {};
  return {epoch_column(catalog_->columns_) + begin_, size_};
}

std::span<const double> HistoryView::mean_motion_revday() const noexcept {
  if (size_ == 0) return {};
  return {reinterpret_cast<const double*>(catalog_->columns_.base[9]) + begin_,
          size_};
}

std::span<const double> HistoryView::bstar() const noexcept {
  if (size_ == 0) return {};
  return {reinterpret_cast<const double*>(catalog_->columns_.base[3]) + begin_,
          size_};
}

std::span<const unsigned char> HistoryView::column_bytes(
    std::size_t column) const noexcept {
  if (size_ == 0) return {};
  const std::size_t width = kColumnWidths[column];
  return {catalog_->columns_.base[column] + begin_ * width, size_ * width};
}

TleCatalog::TleCatalog(const TleCatalog& other)
    : slots_(other.slots_),
      record_count_(other.record_count_),
      used_rows_(other.used_rows_),
      columns_(allocate_columns(other.used_rows_,
                                other.columns_.rows - other.used_rows_)),
      designators_(other.designators_),
      designator_index_(other.designator_index_) {
  copy_rows(other.columns_, 0, columns_, 0, used_rows_);
}

TleCatalog& TleCatalog::operator=(const TleCatalog& other) {
  if (this != &other) *this = TleCatalog(other);
  return *this;
}

TleCatalog::TleCatalog(TleCatalog&& other) noexcept
    : slots_(std::move(other.slots_)),
      record_count_(std::exchange(other.record_count_, 0)),
      used_rows_(std::exchange(other.used_rows_, 0)),
      columns_(std::exchange(other.columns_, Columns{})),
      designators_(std::move(other.designators_)),
      designator_index_(std::move(other.designator_index_)) {
  other.slots_.clear();
}

TleCatalog& TleCatalog::operator=(TleCatalog&& other) noexcept {
  if (this != &other) {
    release_columns(columns_);
    slots_ = std::move(other.slots_);
    other.slots_.clear();
    record_count_ = std::exchange(other.record_count_, 0);
    used_rows_ = std::exchange(other.used_rows_, 0);
    columns_ = std::exchange(other.columns_, Columns{});
    designators_ = std::move(other.designators_);
    designator_index_ = std::move(other.designator_index_);
  }
  return *this;
}

TleCatalog::~TleCatalog() { release_columns(columns_); }

std::uint32_t TleCatalog::intern_designator(std::string_view designator) {
  const auto it = designator_index_.find(designator);
  if (it != designator_index_.end()) return it->second;
  const auto index = static_cast<std::uint32_t>(designators_.size());
  designators_.emplace_back(designator);
  designator_index_.emplace(std::string(designator), index);
  return index;
}

Columns TleCatalog::lay_out_slots(std::map<int, Slot>& slots,
                                  std::size_t& used_rows) {
  std::size_t row = 0;
  for (auto& [id, slot] : slots) {
    slot.begin = row;
    slot.capacity = slot.size + slack_for(slot.size);
    row += slot.capacity;
  }
  used_rows = row;
  return allocate_columns(row, row);
}

void TleCatalog::install(Columns columns, std::map<int, Slot> slots,
                         std::size_t used_rows) {
  release_columns(columns_);
  columns_ = columns;
  slots_ = std::move(slots);
  used_rows_ = used_rows;
}

bool TleCatalog::add(const Tle& tle) { return add_all({&tle, 1}) == 1; }

/// A run of consecutive record indices of one satellite sharing one
/// designator.
struct Run {
  std::size_t first = 0;
  std::size_t last = 0;  // one past
  std::uint32_t designator = 0;
};

/// A new record that lands among a history's old records: record `source`,
/// after the first `position` old records.
struct Insert {
  double epoch = 0.0;
  std::size_t source = 0;
  std::uint32_t designator = 0;
  std::size_t position = 0;
};

struct TleCatalog::Group {
  int id = 0;
  std::vector<Run> runs;
  const Slot* old = nullptr;  // the satellite's slot before the merge
  std::size_t size = 0;       // records after it
  std::size_t added = 0;
  bool appends = true;        // every new record lands past the end
  std::vector<Insert> inserts;  // epoch order, when not appends
  Slot to;                    // its slot after the merge, unless laid out
};

template <typename Each>
std::vector<TleCatalog::Group> TleCatalog::group_records(const Each& each) {
  std::vector<Group> groups;
  std::map<int, std::size_t> group_of;
  std::size_t current = 0;
  const std::string* last_designator = nullptr;
  std::uint32_t designator = 0;
  each([&](std::size_t i, int catalog_number, const std::string& text) {
    if (last_designator == nullptr || *last_designator != text) {
      designator = intern_designator(text);
    }
    last_designator = &text;
    if (groups.empty() || groups[current].id != catalog_number) {
      const auto [it, inserted] = group_of.try_emplace(catalog_number, groups.size());
      if (inserted) {
        Group group;
        group.id = catalog_number;
        groups.push_back(std::move(group));
      }
      current = it->second;
    }
    std::vector<Run>& runs = groups[current].runs;
    if (!runs.empty() && runs.back().last == i && runs.back().designator == designator) {
      runs.back().last = i + 1;
    } else {
      runs.push_back(Run{i, i + 1, designator});
    }
  });
  return groups;
}

template <typename Source>
std::size_t TleCatalog::merge(std::vector<Group>& groups, const Source& source,
                              int num_threads) {
  for (Group& group : groups) {
    const auto slot = slots_.find(group.id);
    if (slot != slots_.end()) group.old = &slot->second;
  }

  // Pass 2 (parallel, per satellite): the duplicate rule over the old
  // history and the new records in insertion order.  Feeds almost always
  // append, which needs no list of inserts.
  exec::parallel_for(groups.size(), num_threads, [&](std::size_t begin,
                                                     std::size_t end) {
    for (std::size_t g = begin; g < end; ++g) {
      Group& group = groups[g];
      const std::size_t old_size = group.old != nullptr ? group.old->size : 0;
      const double* old_epochs =
          group.old != nullptr ? epoch_column(columns_) + group.old->begin
                               : nullptr;
      bool have_last = old_size > 0;
      double last = have_last ? old_epochs[old_size - 1] : 0.0;
      std::size_t added = 0;
      for (const Run& run : group.runs) {
        for (std::size_t i = run.first; i < run.last && group.appends; ++i) {
          const double epoch = source.epoch(i);
          if (have_last && !lands_after(last, epoch)) {
            group.appends = false;
          } else {
            last = epoch;
            have_last = true;
            ++added;
          }
        }
      }
      if (group.appends) {
        group.added = added;
        group.size = old_size + added;
        continue;
      }
      // A record is a duplicate when the old records or the inserts kept
      // so far hold one inside its window.
      std::vector<Insert>& inserts = group.inserts;
      for (const Run& run : group.runs) {
        for (std::size_t i = run.first; i < run.last; ++i) {
          const double epoch = source.epoch(i);
          const std::optional<std::size_t> in_old = insert_position(
              old_size, epoch, [&](std::size_t k) { return old_epochs[k]; });
          const std::optional<std::size_t> in_new = insert_position(
              inserts.size(), epoch,
              [&](std::size_t k) { return inserts[k].epoch; });
          if (!in_old.has_value() || !in_new.has_value()) continue;
          inserts.insert(inserts.begin() + static_cast<std::ptrdiff_t>(*in_new),
                         Insert{epoch, i, run.designator, *in_old});
        }
      }
      group.added = inserts.size();
      group.size = old_size + inserts.size();
    }
  });

  // Pass 3: placement.  A satellite stays in its range when its history
  // still fits, and one the call adds nothing to is left alone.  Every
  // other one, new or outgrown, gets room for twice its records plus 16 in
  // the free rows.  Only when those run out is the catalog laid out again.
  std::size_t used = used_rows_;
  for (Group& group : groups) {
    if (group.added == 0) continue;
    const Slot* old = group.old;
    if (old != nullptr && group.size <= old->capacity) {
      group.to = Slot{old->begin, group.size, old->capacity};
    } else {
      group.to = Slot{used, group.size, 2 * group.size + 16};
      used += group.to.capacity;
    }
  }
  const bool relayout = used > columns_.rows;

  // The histories pass 4 writes: those the call adds to, and on a
  // relayout every other one too, whose rows are only copied (no group).
  struct Move {
    const Group* group = nullptr;
    const Slot* from = nullptr;
    const Slot* to = nullptr;
  };
  std::vector<Move> moves;
  std::map<int, Slot> next;
  Columns target = columns_;
  if (relayout) {
    next = slots_;
    for (const Group& group : groups) {
      if (group.added > 0) next[group.id].size = group.size;
    }
    target = lay_out_slots(next, used);
    for (const auto& [id, from] : slots_) {
      const Slot& to = next.at(id);
      if (to.size == from.size) moves.push_back(Move{nullptr, &from, &to});
    }
  }
  for (const Group& group : groups) {
    if (group.added == 0) continue;
    const Slot* const to = relayout ? &next.at(group.id) : &group.to;
    moves.push_back(Move{&group, group.old, to});
  }

  // Pass 4 (parallel, per satellite): write each history's final rows.  A
  // history that moves is written to its new range while its old rows stay
  // where they are, readable.
  const auto write = [&](const Group& group, const Slot& to) {
    const std::size_t old_begin = group.old != nullptr ? group.old->begin : 0;
    std::size_t old_end = group.size - group.added;  // old records not yet placed
    const bool moved = relayout || to.begin != old_begin;
    if (group.appends) {
      std::size_t row = to.begin + old_end;
      for (const Run& run : group.runs) {
        source.store_run(target, row, run.first, run.last, run.designator);
        row += run.last - run.first;
      }
    } else {
      // From the last row back, so that in place every old record is
      // copied up before its row is written.
      for (std::size_t k = group.inserts.size(); k-- > 0;) {
        const Insert& insert = group.inserts[k];
        const std::size_t row = to.begin + insert.position + k;
        copy_rows(columns_, old_begin + insert.position, target, row + 1,
                  old_end - insert.position);
        source.store_run(target, row, insert.source, insert.source + 1,
                         insert.designator);
        old_end = insert.position;
      }
    }
    if (moved) copy_rows(columns_, old_begin, target, to.begin, old_end);
  };
  exec::parallel_for(moves.size(), num_threads,
                     [&](std::size_t begin, std::size_t end) {
                       for (std::size_t m = begin; m < end; ++m) {
                         const Move& move = moves[m];
                         if (move.group != nullptr) {
                           write(*move.group, *move.to);
                         } else {
                           copy_rows(columns_, move.from->begin, target,
                                     move.to->begin, move.from->size);
                         }
                       }
                     });

  std::size_t added = 0;
  for (const Group& group : groups) added += group.added;
  if (relayout) {
    install(target, std::move(next), used);
  } else {
    for (const Group& group : groups) {
      if (group.added > 0) slots_[group.id] = group.to;
    }
    used_rows_ = used;
  }
  record_count_ += added;
  return added;
}

std::size_t TleCatalog::add_all(std::span<const Tle> records) {
  for (const Tle& tle : records) tle.validate();
  std::vector<Group> groups = group_records([&](const auto& add) {
    for (std::size_t i = 0; i < records.size(); ++i) {
      add(i, records[i].catalog_number, records[i].international_designator);
    }
  });
  return merge(groups, TleSource{[&](std::size_t i) { return &records[i]; }}, 1);
}

void TleCatalog::adopt_histories(std::vector<std::vector<Tle>> histories,
                                 int num_threads) {
  // Check everything before touching the catalog, so a violation leaves it
  // unchanged.  Each history's runs of one designator are found here too,
  // so the records need no serial grouping pass.
  std::vector<int> ids;
  ids.reserve(histories.size());
  std::size_t records = 0;
  for (const std::vector<Tle>& history : histories) {
    if (history.empty()) {
      throw ValidationError("adopt_histories: empty history");
    }
    ids.push_back(history.front().catalog_number);
    records += history.size();
  }
  std::vector<std::vector<std::pair<std::size_t, std::string_view>>> runs(
      histories.size());  // {first record, designator}
  std::vector<std::exception_ptr> errors(histories.size());
  exec::parallel_for(histories.size(), num_threads, [&](std::size_t begin,
                                                        std::size_t end) {
    for (std::size_t h = begin; h < end; ++h) {
      try {
        double prev_epoch = -1e18;
        for (std::size_t k = 0; k < histories[h].size(); ++k) {
          const Tle& tle = histories[h][k];
          tle.validate();
          if (tle.catalog_number != ids[h]) {
            throw ValidationError("adopt_histories: record for satellite " +
                                  std::to_string(tle.catalog_number) +
                                  " in history of " + std::to_string(ids[h]));
          }
          if (!(tle.epoch_jd - prev_epoch >= kDuplicateEpochDays)) {
            throw ValidationError(
                "adopt_histories: history not epoch-sorted with duplicates "
                "dropped for satellite " +
                std::to_string(ids[h]));
          }
          prev_epoch = tle.epoch_jd;
          if (k == 0 || tle.international_designator != runs[h].back().second) {
            runs[h].emplace_back(k, tle.international_designator);
          }
        }
      } catch (...) {
        errors[h] = std::current_exception();
      }
    }
  });
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  std::vector<int> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if ((i > 0 && sorted[i] == sorted[i - 1]) || slots_.count(sorted[i]) > 0) {
      throw ValidationError("adopt_histories: satellite " +
                            std::to_string(sorted[i]) + " already present");
    }
  }
  // Checked: every record lands past the end of a new satellite's history,
  // so the merge keeps them all, in the free rows or one new layout.
  std::vector<const Tle*> pointers;
  pointers.reserve(records);
  std::vector<Group> groups(histories.size());
  for (std::size_t h = 0; h < histories.size(); ++h) {
    const std::size_t base = pointers.size();
    for (const Tle& tle : histories[h]) pointers.push_back(&tle);
    groups[h].id = ids[h];
    for (std::size_t r = 0; r < runs[h].size(); ++r) {
      const std::size_t last =
          r + 1 < runs[h].size() ? runs[h][r + 1].first : histories[h].size();
      groups[h].runs.push_back(Run{base + runs[h][r].first, base + last,
                                   intern_designator(runs[h][r].second)});
    }
  }
  merge(groups, TleSource{[&](std::size_t i) { return pointers[i]; }},
        num_threads);
}

void TleCatalog::lay_out(std::span<const int> ids,
                         std::span<const std::size_t> records) {
  if (ids.size() != records.size()) {
    throw ValidationError("lay_out: one record count per satellite");
  }
  std::map<int, Slot> slots;
  std::size_t total = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i > 0 && ids[i] <= ids[i - 1]) {
      throw ValidationError("lay_out: satellites not strictly ascending");
    }
    if (records[i] == 0) throw ValidationError("lay_out: empty history");
    slots.emplace_hint(slots.end(), ids[i], Slot{0, records[i], 0});
    total += records[i];
  }
  std::size_t used = 0;
  const Columns columns = lay_out_slots(slots, used);
  install(columns, std::move(slots), used);
  record_count_ = total;
}

std::span<unsigned char> TleCatalog::column_bytes(int catalog_number,
                                                  std::size_t column) {
  const Slot& slot = slots_.at(catalog_number);
  const std::size_t width = kColumnWidths[column];
  return {columns_.base[column] + slot.begin * width, slot.size * width};
}

void TleCatalog::check_history(int catalog_number) const {
  const HistoryView view = history(catalog_number);
  if (view.empty()) {
    throw ValidationError("check_history: no records for satellite " +
                          std::to_string(catalog_number));
  }
  const std::span<const unsigned char> designators =
      view.column_bytes(kDesignatorColumn);
  // The designator is the one field validate() does not read, so the
  // record is built without it.
  Tle record;
  record.catalog_number = catalog_number;
  double prev_epoch = -1e18;
  for (std::size_t i = 0; i < view.size(); ++i) {
    std::uint32_t designator = 0;
    std::memcpy(&designator, designators.data() + i * 4, 4);
    if (designator >= designators_.size()) {
      throw ValidationError("check_history: designator index out of range");
    }
    const std::size_t row = view.begin_ + i;
    for (std::size_t c = 0; c < kIntColumn0; ++c) {
      record.*kDoubleFields[c] = load<double>(columns_, c, row);
    }
    record.validate();
    if (!(record.epoch_jd - prev_epoch >= kDuplicateEpochDays)) {
      throw ValidationError(
          "check_history: history not epoch-sorted with duplicates dropped "
          "for satellite " +
          std::to_string(catalog_number));
    }
    prev_epoch = record.epoch_jd;
  }
}

std::size_t TleCatalog::add_from_text(std::string_view text) {
  return add_from_text(text, IngestOptions{});
}

std::size_t TleCatalog::add_from_text(std::string_view text,
                                      const IngestOptions& options) {
  return parse_text(text, options, nullptr, 0);
}

std::size_t TleCatalog::add_from_text(const io::MappedFile& file,
                                      std::size_t offset,
                                      const IngestOptions& options) {
  return parse_text(file.view().substr(offset), options, &file, offset);
}

std::size_t TleCatalog::parse_text(std::string_view text,
                                   const IngestOptions& options,
                                   const io::MappedFile* mapping,
                                   std::size_t offset) {
  const obs::ScopedPhase obs_phase(options.metrics, "tle.add_from_text");
  const std::string source = options.source.empty() ? "<text>" : options.source;
  // Without a caller-supplied log, a local strict one reproduces the
  // historical throw-on-first-error behaviour (with located messages).
  diag::ParseLog fallback;
  diag::ParseLog& log = options.log != nullptr ? *options.log : fallback;

  // Scan (parallel): split the text into shards at line starts; each pairs
  // and parses its own lines into its rows of the staging block and, over
  // a mapping, drops its pages as it parses them.  Shard boundaries are a
  // pure function of (text size, shard count), each shard sees a fixed byte
  // range, and the stitch below is serial in shard order, so the records
  // and rejects are bit-identical to one serial scan at any shard or thread
  // count (tests/ingestion_fuzz_test.cpp and parallel_differential_test.cpp
  // drive the differential across both axes).
  const std::size_t shard_count = resolve_shard_count(text, options);
  const std::vector<std::size_t> starts = shard_starts(text, shard_count);
  const auto stop_of = [&](std::size_t i) {
    return i + 1 < shard_count ? starts[i + 1] : text.size();
  };
  std::vector<ShardParse> shards(shard_count);
  std::size_t rows = 0;
  for (std::size_t i = 0; i < shard_count; ++i) {
    shards[i].first_row = rows;
    rows += staging_rows(stop_of(i) - starts[i]);
  }
  const Staging staging(rows);
  {
    const obs::ScopedPhase phase(options.metrics, "tle.scan");
    exec::parallel_for(
        shard_count, options.num_threads,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            parse_shard(text.substr(starts[i], stop_of(i) - starts[i]), staging,
                        shards[i], mapping, offset + starts[i]);
          }
        },
        options.metrics);

    // Stitch (serial, shard order): number each shard's lines globally and
    // replay the carried pairing state across the shard edges.  Only a
    // shard's first non-empty line can be affected by carried state: a
    // carried line 1 pairs with a leading line 2 (withdrawing the shard's
    // local "line 2 without preceding line 1" reject, rejects.front() by
    // construction), is rejected by a leading malformed "2 "-lead line, or
    // is silently dropped — exactly the serial scan's behaviour at that
    // line.  A carried record and its outcome belong to the shard holding
    // its line 1, whose last non-empty line it is.
    constexpr std::size_t kNoCarry = static_cast<std::size_t>(-1);
    std::size_t carry = kNoCarry;  // the shard holding a pending line 1
    std::size_t carry_line = 0;
    std::size_t line_number = options.first_line - 1;
    for (std::size_t i = 0; i < shard_count; ++i) {
      ShardParse& shard = shards[i];
      if (carry != kNoCarry && shard.first != FirstLine::kNone) {
        ShardParse& holder = shards[carry];
        if (shard.first == FirstLine::kLine2) {
          shard.skip = 1;
          --shard.structural;
          holder.stage_record(staging, holder.pending_line1, shard.first_text,
                              carry_line);
        } else if (shard.first == FirstLine::kMalformed2) {
          holder.reject_line(line_number + shard.first_line, ErrorCategory::kSyntax,
                             "malformed TLE line 2 (wrong length)",
                             shard.first_text);
        }
        carry = kNoCarry;  // paired, rejected, overwritten or cleared
      }
      for (std::size_t r = shard.skip; r < shard.rejects.size(); ++r) {
        shard.rejects[r].line += line_number;
      }
      if (!shard.pending_line1.empty()) {
        carry = i;
        carry_line = line_number + shard.pending_line;
      }
      line_number += shard.lines;
    }
    if (carry != kNoCarry) {
      shards[carry].reject_line(carry_line, ErrorCategory::kStructure,
                                "dangling TLE line 1 at end of input",
                                shards[carry].pending_line1);
    }
  }
  if (options.metrics != nullptr) {
    // Shard count tracks the worker count, so it is a scheduling counter —
    // outside the work-counter determinism contract (DESIGN.md §11).
    options.metrics->sched_counter("tle.scan_shards").add(shard_count);
    std::size_t paired = 0;
    std::size_t structural = 0;
    for (const ShardParse& shard : shards) {
      paired += shard.paired;
      structural += shard.structural;
    }
    options.metrics->counter("tle.records_paired").add(paired);
    options.metrics->counter("tle.structural_rejects").add(structural);
  }

  // Commit: the staged rows of shards [0, last_shard) and the first
  // `last_rows` of shard last_shard go into the columns, grouped by
  // satellite in file order, each designator interned on first use
  // (merge(), over the workers).
  const auto commit = [&](std::size_t last_shard, std::size_t last_rows) {
    const obs::ScopedPhase phase(options.metrics, "tle.commit");
    std::vector<Group> groups = group_records([&](const auto& add) {
      for (std::size_t s = 0; s < shard_count && s <= last_shard; ++s) {
        const ShardParse& shard = shards[s];
        const std::size_t end =
            shard.first_row + (s == last_shard ? last_rows : shard.rows);
        for (std::size_t row = shard.first_row; row < end; ++row) {
          add(row, staging.id(row),
              shard.designators[load<std::uint32_t>(staging.columns,
                                                    kDesignatorColumn, row)]);
        }
      }
    });
    return merge(groups, StagedSource{staging.columns}, options.num_threads);
  };

  // Report (serial, file order): each shard's rejects in turn.  Accepts are
  // batched: the records staged between two rejects become one
  // accept(stage, n) call, flushed before each reject, so the log's
  // observable state (including at a strict-mode throw) is identical to
  // one call per record.  A strict-mode throw first commits the records
  // before the one it reports.
  std::size_t reporting = 0;  // the shard being reported
  std::size_t staged = 0;     // its records reported so far
  try {
    const obs::ScopedPhase phase(options.metrics, "tle.report");
    std::size_t pending_accepts = 0;
    for (; reporting < shard_count; ++reporting) {
      const ShardParse& shard = shards[reporting];
      staged = 0;
      for (std::size_t r = shard.skip; r < shard.rejects.size(); ++r) {
        const Reject& reject = shard.rejects[r];
        pending_accepts += reject.staged_before - staged;
        staged = reject.staged_before;
        if (pending_accepts > 0) {
          log.accept(kStage, pending_accepts);
          pending_accepts = 0;
        }
        log.reject(kStage, reject.category, reject.message, reject.snippet,
                   diag::RecordRef{source, reject.line});
      }
      pending_accepts += shard.rows - staged;
    }
    if (pending_accepts > 0) log.accept(kStage, pending_accepts);
  } catch (...) {
    commit(reporting, staged);
    throw;
  }
  const std::size_t added = commit(shard_count, 0);
  if (options.metrics != nullptr) {
    std::size_t parsed_ok = 0;
    std::size_t parse_rejects = 0;
    for (const ShardParse& shard : shards) {
      parsed_ok += shard.rows;
      parse_rejects += shard.rejects.size() - shard.skip - shard.structural;
    }
    options.metrics->counter("tle.records_parsed").add(parsed_ok);
    options.metrics->counter("tle.records_added").add(added);
    options.metrics->counter("tle.duplicates_dropped").add(parsed_ok - added);
    options.metrics->counter("tle.parse_rejects").add(parse_rejects);
  }
  return added;
}

std::size_t TleCatalog::add_from_file(const std::string& path) {
  const io::MappedFile mapped(path);
  return add_from_text(mapped, 0, IngestOptions{});
}

std::size_t TleCatalog::add_from_file(const std::string& path,
                                      const IngestOptions& options) {
  IngestOptions located = options;
  if (located.source.empty()) located.source = path;
  const io::MappedFile mapped(path);
  if (located.metrics != nullptr && mapped.is_mapped()) {
    located.metrics->counter("ingest.bytes_mapped").add(mapped.size());
  }
  return add_from_text(mapped, 0, located);
}

std::vector<int> TleCatalog::satellites() const {
  std::vector<int> ids;
  ids.reserve(slots_.size());
  for (const auto& [id, slot] : slots_) ids.push_back(id);
  return ids;
}

HistoryView TleCatalog::history(int catalog_number) const {
  const auto it = slots_.find(catalog_number);
  if (it == slots_.end()) return {};
  return HistoryView(this, catalog_number, it->second.begin, it->second.size);
}

double TleCatalog::last_epoch_jd() const {
  if (empty()) throw ValidationError("last_epoch_jd of empty catalog");
  double last = -1e18;
  for (const auto& [id, slot] : slots_) {
    last = std::max(last, epoch_column(columns_)[slot.begin + slot.size - 1]);
  }
  return last;
}

std::string TleCatalog::to_text(int num_threads) const {
  // Every record is kTleRecordBytes long, so a prefix sum over the history
  // lengths gives each satellite's offset in the finished text.
  std::vector<HistoryView> histories;
  std::vector<std::size_t> offsets;
  histories.reserve(slots_.size());
  offsets.reserve(slots_.size());
  std::size_t bytes = 0;
  for (const auto& [id, slot] : slots_) {
    histories.push_back(HistoryView(this, id, slot.begin, slot.size));
    offsets.push_back(bytes);
    bytes += slot.size * kTleRecordBytes;
  }
  std::string out(bytes, '\0');
  // A satellite's first unformattable record lands in its own slot; the
  // lowest slot is the record a serial pass would have thrown on.
  std::vector<std::exception_ptr> errors(histories.size());
  exec::parallel_for(
      histories.size(), num_threads, [&](std::size_t begin, std::size_t end) {
        Tle record;
        for (std::size_t s = begin; s < end; ++s) {
          char* at = out.data() + offsets[s];
          try {
            for (std::size_t i = 0; i < histories[s].size(); ++i) {
              histories[s].read(i, record);
              format_tle_record(record, std::span<char, kTleRecordBytes>(
                                            at, kTleRecordBytes));
              at += kTleRecordBytes;
            }
          } catch (...) {
            errors[s] = std::current_exception();
            return;
          }
        }
      });
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return out;
}

std::vector<double> TleCatalog::refresh_intervals_hours() const {
  std::vector<double> intervals;
  for (const auto& [id, slot] : slots_) {
    const double* epochs = epoch_column(columns_) + slot.begin;
    for (std::size_t i = 1; i < slot.size; ++i) {
      intervals.push_back((epochs[i] - epochs[i - 1]) * 24.0);
    }
  }
  return intervals;
}

}  // namespace cosmicdance::tle
