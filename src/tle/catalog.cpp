#include "tle/catalog.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <optional>
#include <span>
#include <string_view>
#include <utility>

#if defined(__SSE2__)
#include <emmintrin.h>
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

bool TleCatalog::insert_record(std::vector<Tle>& history, const Tle& tle) {
  // Append fast path: real feeds arrive in epoch order per satellite, so
  // almost every record lands past the end of its (sorted) history.  The
  // conditions are exactly the general path's for an end insertion — newer
  // than everything present and outside the back record's duplicate window.
  if (history.empty() ||
      (tle.epoch_jd > history.back().epoch_jd &&
       !(std::fabs(history.back().epoch_jd - tle.epoch_jd) <
         kDuplicateEpochDays))) {
    history.push_back(tle);
    ++record_count_;
    return true;
  }
  const auto insert_at = std::lower_bound(
      history.begin(), history.end(), tle.epoch_jd,
      [](const Tle& existing, double epoch) { return existing.epoch_jd < epoch; });
  if (insert_at != history.end() &&
      std::fabs(insert_at->epoch_jd - tle.epoch_jd) < kDuplicateEpochDays) {
    return false;
  }
  if (insert_at != history.begin() &&
      std::fabs((insert_at - 1)->epoch_jd - tle.epoch_jd) < kDuplicateEpochDays) {
    return false;
  }
  history.insert(insert_at, tle);
  ++record_count_;
  return true;
}

bool TleCatalog::add(const Tle& tle) {
  tle.validate();
  return insert_record(tles_[tle.catalog_number], tle);
}

void TleCatalog::adopt_history(int catalog_number, std::vector<Tle> history) {
  if (history.empty()) {
    throw ValidationError("adopt_history: empty history");
  }
  double prev_epoch = -1e18;
  for (const Tle& tle : history) {
    tle.validate();
    if (tle.catalog_number != catalog_number) {
      throw ValidationError("adopt_history: record for satellite " +
                            std::to_string(tle.catalog_number) +
                            " in history of " + std::to_string(catalog_number));
    }
    if (!(tle.epoch_jd - prev_epoch >= kDuplicateEpochDays)) {
      throw ValidationError(
          "adopt_history: history not epoch-sorted with duplicates dropped "
          "for satellite " +
          std::to_string(catalog_number));
    }
    prev_epoch = tle.epoch_jd;
  }
  const std::size_t count = history.size();
  const auto [it, inserted] =
      tles_.emplace(catalog_number, std::move(history));
  if (!inserted) {
    throw ValidationError("adopt_history: satellite " +
                          std::to_string(catalog_number) + " already present");
  }
  (void)it;
  record_count_ += count;
}

void TleCatalog::absorb(TleCatalog&& other) {
  const std::size_t expected = tles_.size() + other.tles_.size();
  tles_.merge(other.tles_);  // leaves clashing satellites behind in `other`
  if (tles_.size() != expected) {
    throw ValidationError("absorb: satellite " +
                          std::to_string(other.tles_.begin()->first) +
                          " already present");
  }
  record_count_ += std::exchange(other.record_count_, 0);
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
  // structural rejects by line number, committing and reporting in order.
  // This keeps catalog contents, counters and quarantine order bit-identical
  // at any thread count, and makes strict mode throw on the first malformed
  // record in file order.
  std::size_t added = 0;
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
  // Catalog feeds group records by satellite, so consecutive commits almost
  // always land in the same history; one cached bucket pointer saves the
  // per-record map lookup (map nodes are stable, so the pointer survives
  // later insertions).
  int cached_id = 0;
  std::vector<Tle>* cached_history = nullptr;
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    report_structural_before(records[i].line_number);
    if (parsed[i].tle.has_value()) {
      const Tle& tle = *parsed[i].tle;
      ++pending_accepts;
      ++parsed_ok;
      if (cached_history == nullptr || tle.catalog_number != cached_id) {
        cached_history = &tles_[tle.catalog_number];
        cached_id = tle.catalog_number;
        // Catalog feeds are satellite-major, so the upcoming run of records
        // with this catalog number lower-bounds the history's final size;
        // one reserve replaces the doubling reallocations (tens of MB of
        // Tle copies over a full-catalog parse).  Short runs are left to
        // normal growth so interleaved feeds never reserve per record.
        std::size_t run = 1;
        for (std::size_t j = i + 1;
             j < parsed.size() && parsed[j].tle.has_value() &&
             parsed[j].tle->catalog_number == cached_id;
             ++j) {
          ++run;
        }
        if (run >= 16 &&
            cached_history->size() + run > cached_history->capacity()) {
          cached_history->reserve(cached_history->size() + run);
        }
      }
      if (insert_record(*cached_history, tle)) ++added;
    } else {
      ++parse_rejects;
      flush_accepts();
      log.reject(kStage, parsed[i].category, parsed[i].message,
                 std::string(records[i].line1),
                 diag::RecordRef{source, records[i].line_number});
    }
  }
  report_structural_before(line_number + 1);
  flush_accepts();
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
  ids.reserve(tles_.size());
  for (const auto& [id, history] : tles_) ids.push_back(id);
  return ids;
}

std::span<const Tle> TleCatalog::history(int catalog_number) const {
  const auto it = tles_.find(catalog_number);
  if (it == tles_.end()) return {};
  return it->second;
}

double TleCatalog::last_epoch_jd() const {
  if (empty()) throw ValidationError("last_epoch_jd of empty catalog");
  double last = -1e18;
  for (const auto& [id, history] : tles_) {
    last = std::max(last, history.back().epoch_jd);
  }
  return last;
}

std::string TleCatalog::to_text(int num_threads) const {
  // Every record is kTleRecordBytes long, so a prefix sum over the history
  // lengths gives each satellite's offset in the finished text.
  std::vector<const std::vector<Tle>*> histories;
  std::vector<std::size_t> offsets;
  histories.reserve(tles_.size());
  offsets.reserve(tles_.size());
  std::size_t bytes = 0;
  for (const auto& [id, history] : tles_) {
    histories.push_back(&history);
    offsets.push_back(bytes);
    bytes += history.size() * kTleRecordBytes;
  }
  std::string out(bytes, '\0');
  // A satellite's first unformattable record lands in its own slot; the
  // lowest slot is the record a serial pass would have thrown on.
  std::vector<std::exception_ptr> errors(histories.size());
  exec::parallel_for(
      histories.size(), num_threads, [&](std::size_t begin, std::size_t end) {
        for (std::size_t s = begin; s < end; ++s) {
          char* at = out.data() + offsets[s];
          try {
            for (const Tle& tle : *histories[s]) {
              format_tle_record(tle, std::span<char, kTleRecordBytes>(
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
  for (const auto& [id, history] : tles_) {
    for (std::size_t i = 1; i < history.size(); ++i) {
      intervals.push_back((history[i].epoch_jd - history[i - 1].epoch_jd) * 24.0);
    }
  }
  return intervals;
}

}  // namespace cosmicdance::tle
