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

#if defined(__unix__) || defined(__APPLE__)
#define COSMICDANCE_HAVE_MMAP 1
#include <sys/mman.h>
#endif

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

// A paired two-line record located in its source, plus structural rejects
// found while pairing.  The lines are views into the caller's text (a file
// mapping on the fast path) — nothing is copied until a record is rejected
// and its snippet materialised.
struct RawRecord {
  std::string_view line1;
  std::string_view line2;
  std::size_t line_number = 0;  // 1-based line number of line1
};

// A pairing failure found in pass 1.  Deferred (not reported immediately)
// so pass 3 can interleave it with parse failures in file order: strict
// mode must throw on the *first* bad record in the file, not on the first
// structural one.
struct StructuralReject {
  std::size_t line_number = 0;
  ErrorCategory category = ErrorCategory::kSyntax;
  std::string message;
  std::string snippet;
};

// Result of parsing one RawRecord: either a TLE or a categorised failure.
struct ParsedRecord {
  std::optional<Tle> tle;
  ErrorCategory category = ErrorCategory::kSyntax;
  std::string message;
};

ParsedRecord parse_record(const RawRecord& record) {
  ParsedRecord parsed;
  try {
    parsed.tle = parse_tle(record.line1, record.line2);
  } catch (const ParseError& error) {
    parsed.category = error.category();
    parsed.message = error.what();
  } catch (const ValidationError& error) {
    parsed.category = ErrorCategory::kRange;
    parsed.message = error.what();
  }
  return parsed;
}

// ---- sharded pass-1 scan ----------------------------------------------------
//
// The pairing scan is almost embarrassingly parallel: every line either
// starts a record (a line 1), completes one (a line 2), or clears the
// pairing state (anything else).  The only cross-shard coupling is the
// pending line 1 a shard may carry into its successor — and that state can
// influence the handling of exactly one line, the successor's *first*
// non-empty one.  Each shard is therefore scanned independently assuming no
// carried state, remembering how its first non-empty line was classified;
// a serial stitch afterwards replays the carried state across the shard
// edges and patches that one line's outcome.

// How a shard's first non-empty line would be handled by the serial scan —
// the only decision that depends on the pairing state carried in.
enum class FirstLine : std::uint8_t {
  kNone,        // shard has no non-empty lines: carried state passes through
  kLine1,       // a well-formed line 1: overwrites any carried pending
  kLine2,       // a well-formed line 2: pairs with a carried pending line 1
  kMalformed2,  // "2 "-lead line of the wrong length: rejects a carried pending
  kOther,       // a name line: silently clears any carried pending
};

struct ShardScan {
  std::vector<RawRecord> records;            // line numbers local to the shard
  std::vector<StructuralReject> structural;  // ditto, ascending
  std::size_t lines = 0;              // count of lines starting in this shard
  std::string_view pending_line1;     // unpaired line 1 left at shard end
  std::size_t pending_line = 0;       // its local 1-based line number
  std::string_view first_view;        // the first non-empty line
  std::size_t first_line = 0;         // its local 1-based line number
  FirstLine first = FirstLine::kNone;
};

// Scan one shard exactly like the serial pass-1 loop, with local line
// numbers and no pairing state carried in.  When the first non-empty line
// is a lone line 2 it is quarantined here (structural.front()) just as a
// from-zero scan would; the stitch converts that reject into a paired
// record when the previous shard carries a pending line 1 across the edge.
ShardScan scan_shard(std::string_view text) {
  ShardScan scan;
  scan.records.reserve(text.size() / 140 + 1);
  for (std::size_t pos = 0; pos < text.size();) {
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
    ++scan.lines;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;
    const bool is_first = scan.first == FirstLine::kNone;
    if (is_first) {
      scan.first_view = line;
      scan.first_line = scan.lines;
      scan.first = FirstLine::kOther;
    }
    if (looks_like_tle_line(line, '1')) {
      if (is_first) scan.first = FirstLine::kLine1;
      scan.pending_line1 = line;
      scan.pending_line = scan.lines;
      continue;
    }
    if (looks_like_tle_line(line, '2')) {
      if (is_first) scan.first = FirstLine::kLine2;
      if (scan.pending_line1.empty()) {
        scan.structural.push_back({scan.lines, ErrorCategory::kStructure,
                                   "TLE line 2 without preceding line 1",
                                   std::string(line)});
        continue;
      }
      scan.records.push_back(
          RawRecord{scan.pending_line1, line, scan.pending_line});
      scan.pending_line1 = {};
      continue;
    }
    // With a line 1 pending, the next line must be its line 2: a "2 "-lead
    // line of the wrong length is a truncated/corrupted record, not a
    // satellite name (name lines only precede line 1 in 3-line format).
    if (line.size() >= 2 && line[0] == '2' && line[1] == ' ') {
      if (is_first) scan.first = FirstLine::kMalformed2;
      if (!scan.pending_line1.empty()) {
        scan.structural.push_back({scan.lines, ErrorCategory::kSyntax,
                                   "malformed TLE line 2 (wrong length)",
                                   std::string(line)});
        scan.pending_line1 = {};
        continue;
      }
    }
    // Anything else is a satellite-name line (3-line format); ignore.
    scan.pending_line1 = {};
  }
  return scan;
}

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

/// Blocks from this size up are mapped on their own, start on a huge-page
/// boundary and are advised as huge pages: a laid-out catalog then faults
/// in 2 MiB at a time and frees in one munmap.
constexpr std::size_t kHugePage = std::size_t{2} << 20;

Columns allocate_columns(std::size_t rows) {
  Columns columns;
  columns.rows = rows;
  if (rows == 0) return columns;
  const std::size_t bytes = rows * kColumnRecordBytes;
  unsigned char* block = nullptr;
#if COSMICDANCE_HAVE_MMAP
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
#if defined(MADV_HUGEPAGE)
    static_cast<void>(::madvise(block, mapped, MADV_HUGEPAGE));
#endif
    columns.bytes = mapped;
  }
#endif
  if (block == nullptr) {
    block = static_cast<unsigned char*>(std::calloc(bytes, 1));
    if (block == nullptr) throw std::bad_alloc();
  }
  columns.block = block;
  for (std::size_t c = 0; c < kColumnCount; ++c) {
    columns.base[c] = block;
    block += rows * kColumnWidths[c];
  }
  return columns;
}

void release_columns(Columns& columns) noexcept {
  if (columns.block == nullptr) return;
#if COSMICDANCE_HAVE_MMAP
  if (columns.bytes > 0) {
    ::munmap(columns.block, columns.bytes);
  } else {
    std::free(columns.block);
  }
#else
  std::free(columns.block);
#endif
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

/// Where add() puts a record at `epoch` in a history of `size` records
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
      columns_(allocate_columns(other.columns_.rows)),
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
                                  bool free_rows, std::size_t& used_rows) {
  std::size_t row = 0;
  for (auto& [id, slot] : slots) {
    slot.begin = row;
    slot.capacity = slot.size + slack_for(slot.size);
    row += slot.capacity;
  }
  used_rows = row;
  return allocate_columns(free_rows ? 2 * row : row);
}

void TleCatalog::install(Columns columns, std::map<int, Slot> slots,
                         std::size_t used_rows) {
  release_columns(columns_);
  columns_ = columns;
  slots_ = std::move(slots);
  used_rows_ = used_rows;
}

TleCatalog::Slot& TleCatalog::grow(int catalog_number) {
  Slot& slot = slots_.at(catalog_number);
  const std::size_t want = 2 * slot.size + 16;
  if (used_rows_ + want <= columns_.rows) {
    // Move the satellite to the free rows, with room for twice its records.
    copy_rows(columns_, slot.begin, columns_, used_rows_, slot.size);
    slot.begin = used_rows_;
    slot.capacity = want;
    used_rows_ += want;
    return slot;
  }
  // Out of free rows: lay the catalog out afresh with as many free rows as
  // laid-out ones.  Every satellite gets at least 16 spare rows.
  std::map<int, Slot> next = slots_;
  std::size_t used = 0;
  const Columns columns = lay_out_slots(next, true, used);
  for (const auto& [id, old] : slots_) {
    copy_rows(columns_, old.begin, columns, next.at(id).begin, old.size);
  }
  install(columns, std::move(next), used);
  return slots_.at(catalog_number);
}

bool TleCatalog::add(const Tle& tle) {
  tle.validate();
  std::size_t position = 0;
  const auto found = slots_.find(tle.catalog_number);
  if (found != slots_.end()) {
    const double* epochs = epoch_column(columns_) + found->second.begin;
    const std::optional<std::size_t> at =
        insert_position(found->second.size, tle.epoch_jd,
                        [&](std::size_t i) { return epochs[i]; });
    if (!at.has_value()) return false;
    position = *at;
  } else {
    slots_.emplace(tle.catalog_number, Slot{});
  }
  const std::uint32_t designator = intern_designator(tle.international_designator);
  Slot* slot = &slots_.at(tle.catalog_number);
  if (slot->size == slot->capacity) slot = &grow(tle.catalog_number);
  // Shift the records after the insert point up one row.
  copy_rows(columns_, slot->begin + position, columns_,
            slot->begin + position + 1, slot->size - position);
  store(columns_, slot->begin + position, tle, designator);
  ++slot->size;
  ++record_count_;
  return true;
}

/// A run of consecutive record indices of one satellite sharing one
/// designator.
struct Run {
  std::size_t first = 0;
  std::size_t last = 0;  // one past
  std::uint32_t designator = 0;
};

/// One record of a merged history: new (source >= 0, its index) or old
/// (row -1 - source of the old history).
struct Entry {
  double epoch = 0.0;
  std::ptrdiff_t source = 0;
  std::uint32_t designator = 0;
};

struct TleCatalog::Group {
  int id = 0;
  std::vector<Run> runs;
  const Slot* old = nullptr;  // the satellite's slot before the merge
  std::size_t size = 0;       // records after it
  std::size_t added = 0;
  bool appends = true;        // every new record lands past the end
  std::vector<Entry> merged;  // the whole history, when not appends
};

template <typename RecordAt>
std::vector<TleCatalog::Group> TleCatalog::group_records(
    std::size_t count, const RecordAt& record_at) {
  std::vector<Group> groups;
  std::map<int, std::size_t> group_of;
  std::size_t current = 0;
  const std::string* last_designator = nullptr;
  std::uint32_t last_index = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const Tle* tle = record_at(i);
    if (tle == nullptr) continue;
    if (last_designator == nullptr ||
        *last_designator != tle->international_designator) {
      last_index = intern_designator(tle->international_designator);
    }
    last_designator = &tle->international_designator;
    if (groups.empty() || groups[current].id != tle->catalog_number) {
      const auto [it, inserted] =
          group_of.try_emplace(tle->catalog_number, groups.size());
      if (inserted) {
        Group group;
        group.id = tle->catalog_number;
        groups.push_back(std::move(group));
      }
      current = it->second;
    }
    std::vector<Run>& runs = groups[current].runs;
    if (!runs.empty() && runs.back().last == i &&
        runs.back().designator == last_index) {
      runs.back().last = i + 1;
    } else {
      runs.push_back(Run{i, i + 1, last_index});
    }
  }
  return groups;
}

template <typename RecordAt>
std::size_t TleCatalog::merge(std::vector<Group>& groups,
                              const RecordAt& record_at, int num_threads) {
  if (groups.empty()) return 0;
  std::map<int, std::size_t> group_of;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    group_of.emplace(groups[g].id, g);
    const auto slot = slots_.find(groups[g].id);
    if (slot != slots_.end()) groups[g].old = &slot->second;
  }

  // Pass 2 (parallel, per satellite): add()'s duplicate rule over the old
  // history and the new records in insertion order.  Feeds almost always
  // append, which needs no merged list.
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
          const double epoch = record_at(i)->epoch_jd;
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
      std::vector<Entry>& merged = group.merged;
      merged.reserve(old_size + added + 1);
      for (std::size_t j = 0; j < old_size; ++j) {
        merged.push_back(Entry{old_epochs[j], -1 - static_cast<std::ptrdiff_t>(j), 0});
      }
      group.added = 0;
      for (const Run& run : group.runs) {
        for (std::size_t i = run.first; i < run.last; ++i) {
          const Entry entry{record_at(i)->epoch_jd, static_cast<std::ptrdiff_t>(i),
                            run.designator};
          const std::optional<std::size_t> at = insert_position(
              merged.size(), entry.epoch,
              [&](std::size_t k) { return merged[k].epoch; });
          if (!at.has_value()) continue;
          merged.insert(merged.begin() + static_cast<std::ptrdiff_t>(*at), entry);
          ++group.added;
        }
      }
      group.size = merged.size();
    }
  });

  // Pass 3: merge in place when every touched satellite only appends and
  // fits its range, else lay the catalog out once.
  bool in_place = true;
  for (const Group& group : groups) {
    if (group.old == nullptr || !group.appends ||
        group.size > group.old->capacity) {
      in_place = false;
      break;
    }
  }
  std::map<int, Slot> next;
  Columns target = columns_;
  std::size_t used = used_rows_;
  if (!in_place) {
    next = slots_;
    for (const Group& group : groups) next[group.id].size = group.size;
    target = lay_out_slots(next, false, used);
  }

  // Pass 4 (parallel, per satellite): write each history's final rows.
  const auto write = [&](const Group& group, const Slot& to) {
    const Slot* from = group.old;
    if (group.appends) {
      if (from != nullptr && !in_place) {
        copy_rows(columns_, from->begin, target, to.begin, from->size);
      }
      std::size_t row = to.begin + (from != nullptr ? from->size : 0);
      for (const Run& run : group.runs) {
        for (std::size_t i = run.first; i < run.last; ++i) {
          store(target, row++, *record_at(i), run.designator);
        }
      }
      return;
    }
    // Out of order: only on a relayout, so the old rows stay where they
    // are while the history is written to its new range.
    std::size_t row = to.begin;
    for (const Entry& entry : group.merged) {
      if (entry.source < 0) {
        copy_rows(columns_, from->begin + static_cast<std::size_t>(-1 - entry.source),
                  target, row++, 1);
      } else {
        store(target, row++, *record_at(static_cast<std::size_t>(entry.source)),
              entry.designator);
      }
    }
  };
  if (in_place) {
    exec::parallel_for(groups.size(), num_threads,
                       [&](std::size_t begin, std::size_t end) {
                         for (std::size_t g = begin; g < end; ++g) {
                           write(groups[g], *groups[g].old);
                         }
                       });
  } else {
    // Every satellite moves: the untouched ones copy their rows.
    struct Move {
      const Slot* from = nullptr;
      const Slot* to = nullptr;
      const Group* group = nullptr;
    };
    std::vector<Move> moves;
    moves.reserve(next.size());
    for (const auto& [id, to] : next) {
      const auto g = group_of.find(id);
      const auto old = slots_.find(id);
      moves.push_back(Move{old != slots_.end() ? &old->second : nullptr, &to,
                           g != group_of.end() ? &groups[g->second] : nullptr});
    }
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
  }

  std::size_t added = 0;
  for (const Group& group : groups) added += group.added;
  if (in_place) {
    for (const Group& group : groups) slots_.at(group.id).size = group.size;
  } else {
    install(target, std::move(next), used);
  }
  record_count_ += added;
  return added;
}

std::size_t TleCatalog::add_all(std::span<const Tle> records) {
  for (const Tle& tle : records) tle.validate();
  const auto record_at = [&](std::size_t i) { return &records[i]; };
  std::vector<Group> groups = group_records(records.size(), record_at);
  return merge(groups, record_at, 1);
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
  // so the merge keeps them all and lays the columns out once.
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
  merge(groups, [&](std::size_t i) { return pointers[i]; }, num_threads);
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
  const Columns columns = lay_out_slots(slots, false, used);
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
  const obs::ScopedPhase obs_phase(options.metrics, "tle.add_from_text");
  const std::string source = options.source.empty() ? "<text>" : options.source;
  // Without a caller-supplied log, a local strict one reproduces the
  // historical throw-on-first-error behaviour (with located messages).
  diag::ParseLog fallback;
  diag::ParseLog& log = options.log != nullptr ? *options.log : fallback;

  // Pass 1 (parallel): split the text into shards at line starts, scan each
  // independently, then stitch the shard edges serially.  Shard boundaries
  // are a pure function of (text size, shard count), each shard's scan sees
  // a fixed byte range, and the stitch is serial in shard order — so the
  // paired records and structural rejects are bit-identical to one serial
  // scan at any shard or thread count (tests/ingestion_fuzz_test.cpp drives
  // the differential across both axes).
  const std::size_t shard_count = resolve_shard_count(text, options);
  const std::vector<std::size_t> starts = shard_starts(text, shard_count);
  std::vector<ShardScan> scans(shard_count);
  exec::parallel_for(
      shard_count, options.num_threads,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const std::size_t stop =
              i + 1 < shard_count ? starts[i + 1] : text.size();
          scans[i] = scan_shard(text.substr(starts[i], stop - starts[i]));
        }
      },
      options.metrics);
  if (options.metrics != nullptr) {
    // Shard count tracks the worker count, so it is a scheduling counter —
    // outside the work-counter determinism contract (DESIGN.md §11).
    options.metrics->sched_counter("tle.scan_shards").add(shard_count);
  }

  // Stitch (serial, shard order): renumber each shard's lines into global
  // coordinates and replay the carried pairing state across shard edges.
  // Only a shard's first non-empty line can be affected by carried state:
  // a carried line 1 pairs with a leading line 2 (replacing the shard's
  // local "line 2 without preceding line 1" quarantine, which is
  // structural.front() by construction), is rejected by a leading
  // malformed "2 "-lead line, or is silently dropped — exactly the serial
  // scan's behaviour at that line.
  std::vector<RawRecord> records = std::move(scans.front().records);
  std::vector<StructuralReject> structural = std::move(scans.front().structural);
  {
    std::size_t total_records = records.size();
    std::size_t total_structural = structural.size();
    for (std::size_t i = 1; i < shard_count; ++i) {
      total_records += scans[i].records.size() + 1;
      total_structural += scans[i].structural.size() + 1;
    }
    records.reserve(total_records);
    structural.reserve(total_structural);
  }
  const std::size_t base_line = options.first_line - 1;
  if (base_line != 0) {
    for (RawRecord& record : records) record.line_number += base_line;
    for (StructuralReject& reject : structural) reject.line_number += base_line;
  }
  std::string_view pending_line1 = scans.front().pending_line1;
  std::size_t pending_line_number = base_line + scans.front().pending_line;
  std::size_t line_number = base_line + scans.front().lines;
  for (std::size_t i = 1; i < shard_count; ++i) {
    ShardScan& shard = scans[i];
    std::size_t skip_structural = 0;
    if (!pending_line1.empty()) {
      switch (shard.first) {
        case FirstLine::kLine2:
          // The carried line 1 pairs with the shard's leading line 2; drop
          // the quarantine the stateless shard scan recorded for it.
          records.push_back(RawRecord{pending_line1, shard.first_view,
                                      pending_line_number});
          skip_structural = 1;
          pending_line1 = {};
          break;
        case FirstLine::kMalformed2:
          structural.push_back({line_number + shard.first_line,
                                ErrorCategory::kSyntax,
                                "malformed TLE line 2 (wrong length)",
                                std::string(shard.first_view)});
          pending_line1 = {};
          break;
        case FirstLine::kLine1:
        case FirstLine::kOther:
          // Overwritten (by the shard's own scan state below) or cleared.
          pending_line1 = {};
          break;
        case FirstLine::kNone:
          break;  // transparent shard: the carried state passes through
      }
    }
    for (const RawRecord& record : shard.records) {
      records.push_back(RawRecord{record.line1, record.line2,
                                  line_number + record.line_number});
    }
    for (std::size_t s = skip_structural; s < shard.structural.size(); ++s) {
      StructuralReject reject = std::move(shard.structural[s]);
      reject.line_number += line_number;
      structural.push_back(std::move(reject));
    }
    if (shard.first != FirstLine::kNone) {
      pending_line1 = shard.pending_line1;
      pending_line_number = line_number + shard.pending_line;
    }
    line_number += shard.lines;
    // The stitched vectors hold this shard's records now; free its own
    // before the next shard's copy, so passes 2 and 3 run without them.
    std::vector<RawRecord>().swap(shard.records);
    std::vector<StructuralReject>().swap(shard.structural);
  }
  if (!pending_line1.empty()) {
    structural.push_back({pending_line_number, ErrorCategory::kStructure,
                          "dangling TLE line 1 at end of input",
                          std::string(pending_line1)});
  }

  if (options.metrics != nullptr) {
    options.metrics->counter("tle.records_paired").add(records.size());
    options.metrics->counter("tle.structural_rejects").add(structural.size());
  }

  // Pass 2 (parallel): parse the paired records.  Chunk boundaries are a
  // pure function of (count, thread count), so results are deterministic.
  const std::vector<ParsedRecord> parsed = exec::ordered_map<ParsedRecord>(
      records.size(), options.num_threads,
      [&records](std::size_t i) { return parse_record(records[i]); },
      options.metrics);

  // Pass 3 (serial, file order): merge-walk the parsed records and the
  // structural rejects by line number, reporting in order.  This keeps
  // counters and quarantine order bit-identical at any thread count, and
  // makes strict mode throw on the first malformed record in file order.
  std::size_t parsed_ok = 0;
  std::size_t parse_rejects = 0;
  std::size_t next_structural = 0;
  // Accepts are batched: the per-record map lookup inside ParseLog::accept
  // is measurable on the hot path, so a run of accepted records becomes one
  // accept(stage, n) call.  The batch is flushed before every reject so the
  // log's observable state (including at a strict-mode throw) is identical
  // to the historical one-call-per-record sequence.
  std::size_t pending_accepts = 0;
  const auto flush_accepts = [&] {
    if (pending_accepts > 0) {
      log.accept(kStage, pending_accepts);
      pending_accepts = 0;
    }
  };
  const auto report_structural_before = [&](std::size_t limit) {
    while (next_structural < structural.size() &&
           structural[next_structural].line_number < limit) {
      const StructuralReject& failure = structural[next_structural++];
      flush_accepts();
      log.reject(kStage, failure.category, failure.message, failure.snippet,
                 diag::RecordRef{source, failure.line_number});
    }
  };
  // Pass 4: the accepted records go straight into the columns, once every
  // outcome is reported (merge(), over the workers).  A strict-mode throw
  // first adds the records before the one it reports, as committing in
  // pass 3 would have.
  const auto record_at = [&](std::size_t i) -> const Tle* {
    return parsed[i].tle.has_value() ? &*parsed[i].tle : nullptr;
  };
  const auto commit = [&](std::size_t limit) {
    std::vector<Group> groups = group_records(limit, record_at);
    return merge(groups, record_at, options.num_threads);
  };
  std::size_t reported = 0;
  try {
    for (; reported < parsed.size(); ++reported) {
      report_structural_before(records[reported].line_number);
      if (parsed[reported].tle.has_value()) {
        ++pending_accepts;
        ++parsed_ok;
      } else {
        ++parse_rejects;
        flush_accepts();
        log.reject(kStage, parsed[reported].category, parsed[reported].message,
                   std::string(records[reported].line1),
                   diag::RecordRef{source, records[reported].line_number});
      }
    }
    report_structural_before(line_number + 1);
  } catch (...) {
    commit(reported);
    throw;
  }
  flush_accepts();
  const std::size_t added = commit(parsed.size());
  if (options.metrics != nullptr) {
    // Accumulated into locals above so the serial commit loop pays no
    // atomic traffic; one add per counter here.
    options.metrics->counter("tle.records_parsed").add(parsed_ok);
    options.metrics->counter("tle.records_added").add(added);
    options.metrics->counter("tle.duplicates_dropped").add(parsed_ok - added);
    options.metrics->counter("tle.parse_rejects").add(parse_rejects);
  }
  return added;
}

std::size_t TleCatalog::add_from_file(const std::string& path) {
  const io::MappedFile mapped(path);
  return add_from_text(mapped.view());
}

std::size_t TleCatalog::add_from_file(const std::string& path,
                                      const IngestOptions& options) {
  IngestOptions located = options;
  if (located.source.empty()) located.source = path;
  const io::MappedFile mapped(path);
  if (located.metrics != nullptr && mapped.is_mapped()) {
    located.metrics->counter("ingest.bytes_mapped").add(mapped.size());
  }
  return add_from_text(mapped.view(), located);
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
