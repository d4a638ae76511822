#include "io/snapshot.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <span>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "exec/parallel_for.hpp"
#include "exec/thread_pool.hpp"
#include "io/file.hpp"
#include "obs/obs.hpp"
#include "tle/tle.hpp"

namespace cosmicdance::io {
namespace {

// The format is little-endian, and so is every supported build: integers
// and doubles go to and from the bytes with one memcpy each.
static_assert(std::endian::native == std::endian::little,
              "the .cdsnap encoding assumes a little-endian host");

constexpr char kMagic[8] = {'C', 'D', 'S', 'N', 'A', 'P', 'v', '1'};
constexpr std::size_t kHeaderSize = 44;
/// The head hash covers the header bytes before it, then the table.
constexpr std::size_t kHeadHashAt = 36;

// ---- section layout (see snapshot.hpp for the format doc) -------------------

constexpr std::size_t kSectionEntrySize = 16;

/// Records per catalog stripe (whole satellites each).  Only the catalog's
/// contents pick the boundaries, so encode output is thread-count-
/// invariant; the value balances per-section hash/decode parallelism
/// against table overhead.
constexpr std::size_t kStripeTargetRecords = 16384;

/// The quality section keeps the report's TLE part: the stage
/// TleCatalog::add_from_text reports under.
constexpr std::string_view kTleStage = "tle";

// ---- little-endian writer ---------------------------------------------------

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_u32(std::string& out, std::uint32_t v) {
  out.append(reinterpret_cast<const char*>(&v), 4);
}

void put_u64(std::string& out, std::uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), 8);
}

void put_i32(std::string& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

void put_string(std::string& out, std::string_view v) {
  put_u32(out, static_cast<std::uint32_t>(v.size()));
  out.append(v);
}

void put_bytes(std::ostream& out, std::string_view bytes) {
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw IoError("failed writing snapshot");
}

// ---- bounds-checked little-endian reader ------------------------------------

class Cursor {
 public:
  explicit Cursor(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] bool exhausted() const noexcept { return pos_ == bytes_.size(); }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - pos_;
  }

  std::uint8_t u8() {
    return static_cast<std::uint8_t>(static_cast<unsigned char>(view(1)[0]));
  }

  std::uint32_t u32() {
    std::uint32_t v = 0;
    std::memcpy(&v, view(4).data(), 4);
    return v;
  }

  std::uint64_t u64() {
    std::uint64_t v = 0;
    std::memcpy(&v, view(8).data(), 8);
    return v;
  }

  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }

  std::string str() {
    const std::uint32_t length = u32();
    const std::string_view raw = view(length);
    return std::string(raw);
  }

  std::string_view view(std::size_t length) {
    if (length > bytes_.size() - pos_) {
      throw ParseError("snapshot payload truncated");
    }
    const std::string_view out = bytes_.substr(pos_, length);
    pos_ += length;
    return out;
  }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

// ---- payload encoding -------------------------------------------------------

std::uint8_t policy_byte(diag::ParsePolicy policy) {
  return policy == diag::ParsePolicy::kTolerant ? 1 : 0;
}

/// A catalog stripe's column blocks follow its satellite directory and
/// designator table (the layout in snapshot.hpp).
void encode_stripe(std::string& out, const tle::TleCatalog& catalog,
                   std::span<const int> sats) {
  std::vector<tle::HistoryView> histories;
  histories.reserve(sats.size());
  std::size_t records = 0;
  for (const int id : sats) {
    histories.push_back(catalog.history(id));
    records += histories.back().size();
  }
  // The stripe's own designator table, in first-use order, so its bytes
  // depend only on its records, not on how the catalog was built.
  constexpr std::uint32_t kUnused = ~std::uint32_t{0};
  std::vector<std::uint32_t> local(catalog.designator_count(), kUnused);
  std::vector<std::uint32_t> table;
  std::vector<std::uint32_t> designators;
  designators.reserve(records);
  for (const tle::HistoryView& history : histories) {
    const std::span<const unsigned char> column =
        history.column_bytes(tle::kDesignatorColumn);
    for (std::size_t i = 0; i < history.size(); ++i) {
      std::uint32_t global = 0;
      std::memcpy(&global, column.data() + i * 4, 4);
      if (local[global] == kUnused) {
        local[global] = static_cast<std::uint32_t>(table.size());
        table.push_back(global);
      }
      designators.push_back(local[global]);
    }
  }
  std::size_t table_bytes = 0;
  for (const std::uint32_t global : table) {
    table_bytes += 4 + catalog.designator(global).size();
  }
  out.reserve(out.size() + 12 + sats.size() * 12 + table_bytes +
              records * tle::kColumnRecordBytes);
  put_u64(out, sats.size());
  for (const tle::HistoryView& history : histories) {
    put_i32(out, history.catalog_number());
    put_u64(out, history.size());
  }
  put_u32(out, static_cast<std::uint32_t>(table.size()));
  for (const std::uint32_t global : table) put_string(out, catalog.designator(global));
  for (std::size_t c = 0; c < tle::kColumnCount; ++c) {
    if (c == tle::kDesignatorColumn) {
      out.append(reinterpret_cast<const char*>(designators.data()),
                 designators.size() * 4);
      continue;
    }
    for (const tle::HistoryView& history : histories) {
      const std::span<const unsigned char> bytes = history.column_bytes(c);
      out.append(reinterpret_cast<const char*>(bytes.data()), bytes.size());
    }
  }
}

/// A catalog stripe's directory, read before the stripes decode: which
/// satellites it holds, how its designators map into the catalog's table,
/// and where its column blocks start.
struct StripePlan {
  std::size_t first = 0;  // index of its first satellite in the catalog
  std::size_t count = 0;  // satellites
  std::size_t records = 0;
  std::size_t columns_at = 0;  // offset of the column blocks in the section
  std::vector<std::uint32_t> designators;  // stripe index -> catalog index
};

StripePlan plan_stripe(std::string_view section, tle::TleCatalog& catalog,
                       std::vector<int>& ids, std::vector<std::size_t>& sizes) {
  Cursor in(section);
  StripePlan plan;
  plan.first = ids.size();
  // Every bound below keeps a corrupt (but hash-valid) count from sizing
  // anything past what the section can hold.
  const std::uint64_t sats = in.u64();
  if (sats > section.size() / 12) throw ParseError("stripe satellite count");
  plan.count = static_cast<std::size_t>(sats);
  const std::size_t max_records = section.size() / tle::kColumnRecordBytes;
  for (std::size_t s = 0; s < plan.count; ++s) {
    ids.push_back(in.i32());
    const std::uint64_t records = in.u64();
    if (records == 0 || records > max_records - plan.records) {
      throw ParseError("stripe record count exceeds section");
    }
    sizes.push_back(static_cast<std::size_t>(records));
    plan.records += static_cast<std::size_t>(records);
  }
  const std::uint32_t designators = in.u32();
  if (designators > section.size() / 4) throw ParseError("designator count");
  plan.designators.reserve(designators);
  for (std::uint32_t d = 0; d < designators; ++d) {
    const std::uint32_t length = in.u32();
    plan.designators.push_back(catalog.intern_designator(in.view(length)));
  }
  plan.columns_at = section.size() - in.remaining();
  if (in.remaining() != plan.records * tle::kColumnRecordBytes) {
    throw ParseError("stripe column blocks do not fill the section");
  }
  return plan;
}

/// Copy a stripe's column blocks into the laid-out catalog, mapping each
/// designator index (bounds-checked) into the catalog's table, then check
/// each history as adopt_histories would.
void decode_stripe(std::string_view section, const StripePlan& plan,
                   std::span<const int> ids, tle::TleCatalog& catalog) {
  const unsigned char* block =
      reinterpret_cast<const unsigned char*>(section.data()) + plan.columns_at;
  for (std::size_t c = 0; c < tle::kColumnCount; ++c) {
    for (std::size_t s = 0; s < plan.count; ++s) {
      const std::span<unsigned char> target =
          catalog.column_bytes(ids[plan.first + s], c);
      if (c != tle::kDesignatorColumn) {
        std::memcpy(target.data(), block, target.size());
      } else {
        for (std::size_t at = 0; at < target.size(); at += 4) {
          std::uint32_t index = 0;
          std::memcpy(&index, block + at, 4);
          if (index >= plan.designators.size()) {
            throw ParseError("designator index outside the stripe's table");
          }
          std::memcpy(target.data() + at, &plan.designators[index], 4);
        }
      }
      block += target.size();
    }
  }
  for (std::size_t s = 0; s < plan.count; ++s) {
    catalog.check_history(ids[plan.first + s]);
  }
}

/// The report's TLE part: the "tle" stage and its quarantined records.
/// Every run reparses the Dst, which reports its own stage.  The header
/// holds the policy, and every record here is the stage's.
void encode_quality(std::string& out, const diag::DataQualityReport& report) {
  const auto tle = report.stages.find(std::string(kTleStage));
  put_u8(out, tle != report.stages.end() ? 1 : 0);
  if (tle != report.stages.end()) {
    const diag::StageCounters& counters = tle->second;
    put_u64(out, counters.accepted);
    put_u64(out, counters.repaired);
    put_u32(out, static_cast<std::uint32_t>(counters.quarantined.size()));
    for (const std::size_t q : counters.quarantined) put_u64(out, q);
  }
  const auto is_tle = [](const diag::QuarantinedRecord& record) {
    return record.stage == kTleStage;
  };
  put_u64(out, static_cast<std::uint64_t>(
                   std::count_if(report.quarantined.begin(),
                                 report.quarantined.end(), is_tle)));
  for (const diag::QuarantinedRecord& record : report.quarantined) {
    if (!is_tle(record)) continue;
    put_string(out, record.source);
    put_u64(out, record.line);
    put_u8(out, static_cast<std::uint8_t>(record.category));
    put_string(out, record.message);
    put_string(out, record.snippet);
  }
}

diag::ErrorCategory decode_category(Cursor& in) {
  const std::uint8_t raw = in.u8();
  if (raw >= static_cast<std::uint8_t>(kErrorCategoryCount)) {
    throw ParseError("snapshot carries unknown error category");
  }
  return static_cast<diag::ErrorCategory>(raw);
}

diag::DataQualityReport decode_quality(Cursor& in) {
  diag::DataQualityReport report;
  const std::uint8_t has_stage = in.u8();
  if (has_stage > 1) throw ParseError("snapshot stage presence byte");
  if (has_stage == 1) {
    diag::StageCounters counters;
    counters.accepted = in.u64();
    counters.repaired = in.u64();
    const std::uint32_t categories = in.u32();
    if (categories != counters.quarantined.size()) {
      throw ParseError("snapshot category-count mismatch");
    }
    for (std::size_t c = 0; c < counters.quarantined.size(); ++c) {
      counters.quarantined[c] = in.u64();
    }
    report.stages.emplace(kTleStage, counters);
  }
  const std::uint64_t quarantined_count = in.u64();
  for (std::uint64_t i = 0; i < quarantined_count; ++i) {
    diag::QuarantinedRecord record;
    record.stage = kTleStage;
    record.source = in.str();
    record.line = in.u64();
    record.category = decode_category(in);
    record.message = in.str();
    record.snippet = in.str();
    report.quarantined.push_back(std::move(record));
  }
  return report;
}

// ---- XXH64 input fingerprint ------------------------------------------------

constexpr std::uint64_t kXxhPrime1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kXxhPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kXxhPrime3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kXxhPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kXxhPrime5 = 0x27D4EB2F165667C5ULL;
constexpr std::size_t kXxhStripe = 32;

std::uint64_t load_le64(const char* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, 8);
  return v;
}

std::uint64_t xxh_round(std::uint64_t acc, std::uint64_t input) {
  acc += input * kXxhPrime2;
  return std::rotl(acc, 31) * kXxhPrime1;
}

/// 0x01 in each byte lane of `word` that holds '\n', 0x00 elsewhere.  The
/// carry-free zero-byte test: no lane's sum can carry into its neighbour,
/// so there are no false matches.
std::uint64_t newline_lanes(std::uint64_t word) {
  constexpr std::uint64_t kNewlines = 0x0A0A0A0A0A0A0A0AULL;
  constexpr std::uint64_t kLow7 = 0x7F7F7F7F7F7F7F7FULL;
  const std::uint64_t x = word ^ kNewlines;
  return ~(((x & kLow7) + kLow7) | x | kLow7) >> 7;
}

/// Sum of the eight byte lanes of `lanes` (each at most 255).
std::uint64_t sum_lanes(std::uint64_t lanes) {
  constexpr std::uint64_t kEvenBytes = 0x00FF00FF00FF00FFULL;
  const std::uint64_t pairs = (lanes & kEvenBytes) + ((lanes >> 8) & kEvenBytes);
  return (pairs * 0x0001000100010001ULL) >> 48;
}

using XxhState = std::array<std::uint64_t, 4>;

/// XXH64's accumulators before the first stripe (seed 0).
constexpr XxhState kXxhInit{kXxhPrime1 + kXxhPrime2, kXxhPrime2, 0,
                            0 - kXxhPrime1};

/// Fold `count` 32-byte stripes at `p` into the accumulators; returns the
/// number of '\n' bytes in them when kCountLines, else 0.
template <bool kCountLines>
std::uint64_t xxh_stripes(XxhState& state, const char* p, std::size_t count) {
  // Four named locals, not `state`: stores through the reference could
  // alias the input bytes, and an indexed array stays in memory, either of
  // which chains every round through a store and a load.
  auto [a0, a1, a2, a3] = state;
  std::uint64_t lines = 0;
  while (count > 0) {
    // A stripe adds at most 4 to a byte lane, so 63 stripes stay under 256.
    const std::size_t block = std::min<std::size_t>(count, 63);
    std::uint64_t lanes = 0;
    for (std::size_t s = 0; s < block; ++s, p += kXxhStripe) {
      const std::uint64_t w0 = load_le64(p);
      const std::uint64_t w1 = load_le64(p + 8);
      const std::uint64_t w2 = load_le64(p + 16);
      const std::uint64_t w3 = load_le64(p + 24);
      a0 = xxh_round(a0, w0);
      a1 = xxh_round(a1, w1);
      a2 = xxh_round(a2, w2);
      a3 = xxh_round(a3, w3);
      if constexpr (kCountLines) {
        lanes += newline_lanes(w0) + newline_lanes(w1) + newline_lanes(w2) +
                 newline_lanes(w3);
      }
    }
    if constexpr (kCountLines) lines += sum_lanes(lanes);
    count -= block;
  }
  state = {a0, a1, a2, a3};
  return lines;
}

/// XXH64's final mix: the accumulators of `length` bytes' whole stripes,
/// then the `n` (< 32) bytes after them at `p`.
std::uint64_t xxh_digest(const XxhState& acc, std::uint64_t length,
                         const char* p, std::size_t n) {
  std::uint64_t h = kXxhPrime5;
  if (length >= kXxhStripe) {
    h = std::rotl(acc[0], 1) + std::rotl(acc[1], 7) + std::rotl(acc[2], 12) +
        std::rotl(acc[3], 18);
    for (const std::uint64_t lane : acc) {
      h = (h ^ xxh_round(0, lane)) * kXxhPrime1 + kXxhPrime4;
    }
  }
  h += length;
  for (; n >= 8; p += 8, n -= 8) {
    h = std::rotl(h ^ xxh_round(0, load_le64(p)), 27) * kXxhPrime1 + kXxhPrime4;
  }
  if (n >= 4) {
    std::uint32_t word = 0;
    std::memcpy(&word, p, 4);
    h = std::rotl(h ^ (word * kXxhPrime1), 23) * kXxhPrime2 + kXxhPrime3;
    p += 4;
    n -= 4;
  }
  for (; n > 0; ++p, --n) {
    h = std::rotl(h ^ (static_cast<unsigned char>(*p) * kXxhPrime5), 11) *
        kXxhPrime1;
  }
  h ^= h >> 33;
  h *= kXxhPrime2;
  h ^= h >> 29;
  h *= kXxhPrime3;
  return h ^ (h >> 32);
}

/// A run of bytes' XXH64 (seed 0) and, when counted, its '\n' bytes.
struct Digest {
  std::uint64_t hash = 0;
  std::uint64_t lines = 0;
};

/// XXH64 of `bytes`, with their newlines counted in the same loop when
/// kCountLines (which halves the rate over cache-resident bytes).
template <bool kCountLines>
Digest xxh64_of(std::string_view bytes) {
  XxhState acc = kXxhInit;
  const std::size_t stripes = bytes.size() / kXxhStripe;
  const char* rest = bytes.data() + stripes * kXxhStripe;
  const std::size_t n = bytes.size() % kXxhStripe;
  Digest digest;
  digest.lines = xxh_stripes<kCountLines>(acc, bytes.data(), stripes);
  if constexpr (kCountLines) {
    digest.lines += static_cast<std::uint64_t>(std::count(rest, rest + n, '\n'));
  }
  digest.hash = xxh_digest(acc, bytes.size(), rest, n);
  return digest;
}

/// The fingerprint hashes its input in windows of this many bytes from
/// byte 0, each on its own, so the windows hash in parallel and a grown
/// input shares every whole window of its prefix.
constexpr std::size_t kFingerprintWindow = std::size_t{4} << 20;

/// The fingerprint of `length` bytes whose windows hashed to `windows`:
/// XXH64 of the window digests, then the length, each a little-endian u64.
std::uint64_t fingerprint(std::span<const Digest> windows, std::uint64_t length) {
  std::string bytes;
  bytes.reserve(8 * (windows.size() + 1));
  for (const Digest& window : windows) put_u64(bytes, window.hash);
  put_u64(bytes, length);
  return xxh64(bytes);
}

InputClassification classify(const IngestState& base, std::string_view bytes,
                             const MappedFile* mapping, int num_threads) {
  // The input's windows, then the recorded prefix's last partial window
  // when the input grew past it: the prefix shares every whole window below
  // its end with the input, so only that one is hashed twice.  A shrunk
  // input has no prefix.
  const std::size_t size = bytes.size();
  const bool has_prefix = base.tle_len <= size;
  const auto prefix = has_prefix ? static_cast<std::size_t>(base.tle_len) : 0;
  const std::size_t whole = prefix / kFingerprintWindow;
  const bool partial = prefix % kFingerprintWindow != 0;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;  // [begin, end)
  for (std::size_t at = 0; at < size; at += kFingerprintWindow) {
    ranges.emplace_back(at, std::min(size, at + kFingerprintWindow));
  }
  const std::size_t windows = ranges.size();
  if (partial && prefix < size) {
    ranges.emplace_back(whole * kFingerprintWindow, prefix);
  }
  // Only the prefix of an input that grew has its newlines read (an
  // append's tail starts on the line after them), so only its ranges pay
  // for the count; the others take the plain loop, which gives the same
  // digest.  Each range's pages go once it is hashed, so the pass holds
  // about a window a worker of a mapped input resident.
  const std::vector<Digest> digests = exec::ordered_map<Digest>(
      ranges.size(), num_threads, [&](std::size_t i) {
        const auto [begin, end] = ranges[i];
        const std::string_view range = bytes.substr(begin, end - begin);
        const Digest digest = prefix < size && (i < whole || i >= windows)
                                  ? xxh64_of<true>(range)
                                  : xxh64_of<false>(range);
        if (mapping != nullptr) mapping->drop_pages(begin, end);
        return digest;
      });

  InputClassification out;
  out.current = IngestState{size, fingerprint(std::span(digests).first(windows), size)};
  if (!has_prefix) return out;
  std::vector<Digest> recorded(digests.begin(),
                               digests.begin() + static_cast<std::ptrdiff_t>(whole));
  if (partial) recorded.push_back(digests[prefix < size ? windows : whole]);
  // Edited within the recorded prefix.
  if (fingerprint(recorded, prefix) != base.tle_hash) return out;
  for (const Digest& window : recorded) out.prefix_lines += window.lines;
  if (size == prefix) {
    out.match = InputMatch::kExact;
    return out;
  }
  // Append: the hash proved the prefix is the recorded input, so its
  // boundary is read from these bytes.  It must end a line (appended bytes
  // could otherwise rewrite its last one) and leave no line 1 unpaired (an
  // appended line 2 would otherwise pair with it retroactively).
  const std::string_view recorded_bytes = bytes.substr(0, prefix);
  if (!recorded_bytes.empty() && recorded_bytes.back() != '\n') return out;
  if (!tle::append_boundary_clean(recorded_bytes)) return out;
  out.match = InputMatch::kAppend;
  return out;
}

}  // namespace

std::uint64_t xxh64(std::string_view bytes) {
  // The plain loop: only the prefix windows of a grown input need a
  // newline count.
  return xxh64_of<false>(bytes).hash;
}

InputClassification classify_inputs(const IngestState& base,
                                    std::string_view tle_bytes, int num_threads) {
  return classify(base, tle_bytes, nullptr, num_threads);
}

InputClassification classify_inputs(const IngestState& base,
                                    const MappedFile& tle, int num_threads) {
  return classify(base, tle.view(), &tle, num_threads);
}

IngestState ingest_state_of(std::string_view /*dst_bytes*/,
                            std::string_view tle_bytes) {
  return classify_inputs(IngestState{}, tle_bytes, 0).current;
}

std::string snapshot_cache_path(const std::string& cache_dir,
                                const std::string& tle_path) {
  const std::uint64_t hash = xxh64(tle_path);
  char name[32];
  std::snprintf(name, sizeof(name), "%016llx.cdsnap",
                static_cast<unsigned long long>(hash));
  return (std::filesystem::path(cache_dir) / name).string();
}

std::uint64_t write_snapshot(std::ostream& out, const SnapshotData& data,
                             obs::Metrics* metrics, int num_threads) {
  // Stripe plan: whole satellites, cut when the running record count
  // reaches the target.  A pure function of the catalog — never of thread
  // count — so the encoded bytes are identical at any worker count.
  const std::vector<int> sats = data.catalog.satellites();
  std::vector<std::pair<std::size_t, std::size_t>> stripes;  // [begin,end) in sats
  {
    std::size_t begin = 0;
    std::size_t records = 0;
    for (std::size_t i = 0; i < sats.size(); ++i) {
      records += data.catalog.history(sats[i]).size();
      if (records >= kStripeTargetRecords) {
        stripes.emplace_back(begin, i + 1);
        begin = i + 1;
        records = 0;
      }
    }
    if (begin < sats.size()) stripes.emplace_back(begin, sats.size());
  }
  const std::size_t section_count = stripes.size() + 1;

  // Each section serialises (and hashes) into its own buffer, independently:
  // the catalog stripes, then the quality section.
  struct EncodedSection {
    std::string bytes;
    std::uint64_t hash = 0;
  };
  const auto encode = [&](std::size_t i) {
    EncodedSection section;
    if (i < stripes.size()) {
      const auto [begin, end] = stripes[i];
      encode_stripe(section.bytes, data.catalog,
                    std::span<const int>(sats).subspan(begin, end - begin));
    } else {
      encode_quality(section.bytes, data.quality);
    }
    section.hash = xxh64(section.bytes);
    return section;
  };

  // The plan fixes the size of the header and the table in front of the
  // sections.  Hold their place, stream the sections behind them a wave at
  // a time — the workers encode a wave, the caller appends it in section
  // order and frees it, so the writer holds one wave, never the file — and
  // fill them in once every section's hash and length is known.
  const std::ostream::pos_type start = out.tellp();
  put_bytes(out, std::string(kHeaderSize + section_count * kSectionEntrySize, '\0'));
  const std::size_t wave =
      kSaveWaveSectionsPerWorker * exec::resolve_thread_count(num_threads);
  std::string table;
  table.reserve(section_count * kSectionEntrySize);
  std::uint64_t offset = 0;  // section bytes written so far
  std::size_t peak_held = 0;
  for (std::size_t first = 0; first < section_count; first += wave) {
    const std::vector<EncodedSection> sections = exec::ordered_map<EncodedSection>(
        std::min(wave, section_count - first), num_threads,
        [&](std::size_t k) { return encode(first + k); }, nullptr);
    std::size_t held = 0;
    for (std::size_t k = 0; k < sections.size(); ++k) {
      put_u64(table, sections[k].bytes.size());
      put_u64(table, sections[k].hash);
      put_bytes(out, sections[k].bytes);
      offset += sections[k].bytes.size();
      held += sections[k].bytes.size();
    }
    peak_held = std::max(peak_held, held);
  }

  std::string head;
  head.append(kMagic, sizeof(kMagic));
  put_u32(head, kSnapshotFormatVersion);
  put_u8(head, policy_byte(data.quality.policy));
  head.append(3, '\0');
  put_u64(head, data.state.tle_len);
  put_u64(head, data.state.tle_hash);
  put_u32(head, static_cast<std::uint32_t>(section_count));
  put_u64(head, xxh64(head + table));
  head.append(table);
  const std::uint64_t total = head.size() + offset;
  out.seekp(start);
  put_bytes(out, head);
  out.seekp(start + static_cast<std::streamoff>(total));
  if (!out) throw IoError("failed writing snapshot");
  if (metrics != nullptr) {
    metrics->set_gauge("snapshot.save_peak_buffer_bytes",
                       static_cast<double>(peak_held));
  }
  return total;
}

namespace {

/// What a snapshot's head records, checked: where open_snapshot and
/// decode_snapshot start.
struct CheckedHead {
  IngestState state;
  std::vector<SnapshotSection> sections;
};

/// Check the head: magic, version and policy, a table that fits the file,
/// the head hash over the header and the table, and section lengths that
/// fill the file exactly behind the table.  nullopt on any disagreement.
std::optional<CheckedHead> check_head(std::string_view bytes,
                                      diag::ParsePolicy policy) {
  if (bytes.size() < kHeaderSize) return std::nullopt;
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) return std::nullopt;
  Cursor header(bytes.substr(sizeof(kMagic), kHeaderSize - sizeof(kMagic)));
  if (header.u32() != kSnapshotFormatVersion) return std::nullopt;
  if (header.u8() != policy_byte(policy)) return std::nullopt;
  header.view(3);  // zero; the head hash covers it
  CheckedHead head;
  head.state.tle_len = header.u64();
  head.state.tle_hash = header.u64();
  const std::uint32_t section_count = header.u32();
  const std::uint64_t head_hash = header.u64();

  // At least the quality section, and a table that fits the file (a short
  // file is a truncated table).
  if (section_count == 0) return std::nullopt;
  const std::uint64_t table_size =
      static_cast<std::uint64_t>(section_count) * kSectionEntrySize;
  if (table_size > bytes.size() - kHeaderSize) return std::nullopt;
  const std::string_view table = bytes.substr(kHeaderSize, table_size);
  if (xxh64(std::string(bytes.substr(0, kHeadHashAt)).append(table)) != head_hash) {
    return std::nullopt;
  }

  // Each section starts where the one before it ends; the lengths must end
  // exactly at the end of the file.
  head.sections.resize(section_count);
  Cursor entries(table);
  std::size_t at = kHeaderSize + table.size();
  for (SnapshotSection& section : head.sections) {
    const std::uint64_t length = entries.u64();
    section.hash = entries.u64();
    if (length > bytes.size() - at) return std::nullopt;
    section.offset = at;
    section.length = static_cast<std::size_t>(length);
    at += section.length;
  }
  if (at != bytes.size()) return std::nullopt;
  return head;
}

/// Decode the sections a checked head lists — the catalog stripes, then the
/// quality section — validating and deserialising them over `num_threads`
/// workers.  With the bytes' `mapping`, each section's pages are dropped
/// once it is decoded.  nullopt on any disagreement, a satellite two
/// catalog stripes both carry included.
std::optional<SnapshotData> decode_sections(
    std::string_view bytes, const IngestState& state, diag::ParsePolicy policy,
    std::span<const SnapshotSection> sections, int num_threads,
    const MappedFile* mapping) {
  try {
    SnapshotData data;
    data.state = state;
    const std::size_t stripe_count = sections.size() - 1;
    const auto blob_of = [&](std::size_t i) {
      return bytes.substr(sections[i].offset, sections[i].length);
    };
    // The stripes' directories, serially: they fix the catalog's layout, so
    // the columns are laid out once and every stripe decodes straight into
    // its satellites' rows.  Their bytes are hash-checked with the rest of
    // the section below; every count is bounded by the section here.
    std::vector<StripePlan> plans;
    {
      std::vector<int> ids;
      std::vector<std::size_t> sizes;
      plans.reserve(stripe_count);
      for (std::size_t i = 0; i < stripe_count; ++i) {
        plans.push_back(plan_stripe(blob_of(i), data.catalog, ids, sizes));
      }
      // Throws on a satellite two stripes carry, or out of order.
      data.catalog.lay_out(ids, sizes);
    }
    const std::vector<int> ids = data.catalog.satellites();

    // Validate and decode the sections in parallel.  Each stripe's worker
    // writes only its own satellites' rows.  Decode failures are carried
    // out as flags (never thrown across the pool) and any one rejects the
    // file.
    struct SectionResult {
      bool ok = true;
      std::optional<diag::DataQualityReport> quality;
    };
    std::vector<SectionResult> results = exec::ordered_map<SectionResult>(
        sections.size(), num_threads,
        [&](std::size_t k) {
          SectionResult result;
          try {
            const std::string_view blob = blob_of(k);
            if (xxh64(blob) != sections[k].hash) throw ParseError("section hash");
            if (k < stripe_count) {
              decode_stripe(blob, plans[k], ids, data.catalog);
            } else {
              Cursor in(blob);
              result.quality = decode_quality(in);
              if (!in.exhausted()) throw ParseError("section trailing bytes");
            }
            // Decoded: give its pages back (their bytes stay readable), so
            // the load does not hold them resident beside the catalog.
            if (mapping != nullptr) {
              mapping->drop_pages(sections[k].offset,
                                  sections[k].offset + sections[k].length);
            }
          } catch (const std::exception&) {
            result.ok = false;
          }
          return result;
        },
        nullptr);
    for (const SectionResult& result : results) {
      if (!result.ok) return std::nullopt;
    }
    data.quality = std::move(*results.back().quality);
    data.quality.policy = policy;
    return data;
  } catch (const std::exception&) {
    // Truncated fields, invalid enum values, or datasets that fail their
    // own validation on rebuild: all reject-and-reparse, never fatal.
    return std::nullopt;
  }
}

}  // namespace

std::optional<SnapshotData> decode_snapshot(std::string_view bytes,
                                            diag::ParsePolicy policy,
                                            int num_threads) {
  const std::optional<CheckedHead> head = check_head(bytes, policy);
  if (!head.has_value()) return std::nullopt;
  return decode_sections(bytes, head->state, policy, head->sections,
                         num_threads, nullptr);
}

std::optional<SnapshotFile> open_snapshot(const std::string& path,
                                          diag::ParsePolicy policy,
                                          obs::Metrics* metrics) {
  try {
    MappedFile mapping(path);
    if (std::optional<CheckedHead> head = check_head(mapping.view(), policy)) {
      return SnapshotFile{std::move(mapping), head->state, policy,
                          std::move(head->sections)};
    }
  } catch (const std::exception&) {
    // Unreadable file (most commonly: not written yet) is a plain miss.
    return std::nullopt;
  }
  if (metrics != nullptr) metrics->counter("snapshot.rejected").add(1);
  return std::nullopt;
}

std::optional<SnapshotData> load_snapshot(const SnapshotFile& file,
                                          obs::Metrics* metrics,
                                          int num_threads) {
  const obs::ScopedPhase phase(metrics, "snapshot.load");
  std::optional<SnapshotData> data =
      decode_sections(file.mapping.view(), file.state, file.policy,
                      file.sections, num_threads, &file.mapping);
  if (metrics != nullptr) {
    if (!data.has_value()) {
      metrics->counter("snapshot.rejected").add(1);
    } else {
      // The warm-throughput numerator: records materialised from snapshot
      // bytes.
      metrics->counter("snapshot.load_records").add(data->catalog.record_count());
      // How the payload was laid out on disk — stripe sizing, not results,
      // so a scheduling counter.
      metrics->sched_counter("snapshot.load_sections").add(file.sections.size());
    }
  }
  return data;
}

namespace {

/// Per-writer temp name for save_snapshot.  A fixed ".tmp" suffix would be
/// shared by every concurrent saver — two processes (or threads) racing to
/// the same cache entry would interleave writes into one temp file and
/// rename a torn hybrid into place.  Embedding the pid separates
/// processes; the process-wide serial separates threads within one.
std::filesystem::path unique_temp_path(const std::string& path) {
  static std::atomic<std::uint64_t> serial{0};
  return std::filesystem::path(
      path + ".tmp." + std::to_string(::getpid()) + "." +
      // cdlint: allow(relaxed-order) the serial only needs uniqueness; no data is published through it
      std::to_string(serial.fetch_add(1, std::memory_order_relaxed)));
}

/// Puts the written `temp` file in place of `target`.  Over a regular file
/// the two names swap (RENAME_EXCHANGE) and the old file, now at `temp`, is
/// unlinked: a rename() over an existing file makes ext4 (auto_da_alloc,
/// on by default) allocate and queue the whole new file for writeback
/// inside the call, and the cache needs no such flush, since its section
/// hashes reject a file a crash tore.  With no target yet, a target that
/// is not a regular file (a directory must still fail the save, and would
/// swap in), or a filesystem without the exchange, it is a plain rename.
void replace_target(const std::filesystem::path& temp,
                    const std::filesystem::path& target) {
  struct stat status {};
  if (::lstat(target.c_str(), &status) == 0 && S_ISREG(status.st_mode) &&
      ::renameat2(AT_FDCWD, temp.c_str(), AT_FDCWD, target.c_str(),
                  RENAME_EXCHANGE) == 0) {
    // The save is done; an old file left behind costs only disk space.
    std::error_code ignored;
    std::filesystem::remove(temp, ignored);
    return;
  }
  std::filesystem::rename(temp, target);
}

}  // namespace

bool save_snapshot(const std::string& path, const SnapshotData& data,
                   obs::Metrics* metrics, int num_threads) {
  const obs::ScopedPhase phase(metrics, "snapshot.save");
  // Temp-then-swap keeps readers off half-written files; the unique temp
  // name keeps concurrent writers off *each other's* — the swap or rename
  // itself is atomic, so the last complete file wins.
  const std::filesystem::path temp = unique_temp_path(path);
  try {
    const std::filesystem::path target(path);
    if (target.has_parent_path()) {
      std::filesystem::create_directories(target.parent_path());
    }
    std::uint64_t bytes = 0;
    {
      std::ofstream out(temp, std::ios::binary | std::ios::trunc);
      if (!out) throw IoError("cannot open snapshot temp file");
      bytes = write_snapshot(out, data, metrics, num_threads);
      // Closing flushes the last buffered bytes; a failure there must not
      // be lost in the destructor.
      out.close();
      if (!out) throw IoError("failed writing snapshot temp file");
    }
    {
      const obs::ScopedPhase replace(metrics, "snapshot.replace");
      replace_target(temp, target);
    }
    if (metrics != nullptr) {
      metrics->counter("snapshot.written").add(1);
      metrics->counter("snapshot.save_bytes").add(bytes);
    }
    return true;
  } catch (const std::exception&) {
    if (metrics != nullptr) metrics->counter("snapshot.write_failed").add(1);
    std::error_code ignored;
    std::filesystem::remove(temp, ignored);
    return false;
  }
}

}  // namespace cosmicdance::io
