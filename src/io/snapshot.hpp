// Binary catalog snapshot cache, append-aware (the warm-start half of the
// zero-copy ingestion work).
//
// Parsing the TLE archive dominates pipeline start-up, yet between runs the
// input rarely changes — and when it does change, real TLE feeds are
// append-heavy: the same prefix plus N new bytes at the end.  A snapshot
// serialises the *parsed* TLE artefacts — the catalog and the TLE stage of
// the ingestion DataQualityReport — keyed by the TLE input's byte length
// and XXH64 content hash.  The Dst file is a few hundred kilobytes that
// parse in milliseconds, so every run parses it and no snapshot holds it:
//
//   * A warm run whose TLE input matches exactly loads the snapshot and
//     skips TLE text parsing entirely.
//   * A warm run whose TLE input is an unchanged prefix plus appended bytes
//     loads the snapshot, parses only the tail, and rewrites the snapshot
//     as one fresh base covering the grown input.
//   * Any other disagreement (a shrunk or edited input, format version,
//     parse policy, truncation, a check hash, trailing bytes) makes the
//     loader/caller silently fall back to the text path and rewrite a
//     fresh base.  See DESIGN.md §14 for the reasoning.
//
// A run reads the recorded state (open_snapshot below), then fingerprints
// its input before any decode or parse (classify_inputs), and decodes only
// a snapshot of the same input, or of a prefix of it, from the one mapping.
// Neither end of the cache holds its whole file (write_snapshot,
// load_snapshot below).
// The file lives at `<cache_dir>/<xxh64>.cdsnap`, the XXH64 of the TLE
// input's path.
//
// Layout (format v11): a fixed 44-byte header
//   bytes  0-7   magic "CDSNAPv1"
//   bytes  8-11  format version (u32)
//   byte   12    parse policy (0 strict, 1 tolerant)
//   bytes 13-15  zero
//   bytes 16-23  TLE input length (u64)        IngestState::tle_len
//   bytes 24-31  TLE input fingerprint (u64)   IngestState::tle_hash
//   bytes 32-35  section count N (u32, >= 1)
//   bytes 36-43  XXH64 of bytes 0-35 followed by the table
// then the section table, N × {u64 length, u64 XXH64 of the section}, then
// the sections back to back: N - 1 catalog stripes and the quality section
// last.  Each section starts where the one before it ends, and the lengths
// must fill the file exactly, so a loader checks the head once and then
// validates and deserialises the sections independently (in parallel).
// The stripe plan fixes N, and so the 44 + 16 × N bytes of header and
// table, before any section is encoded: the writer holds their place with
// zeros, appends the sections behind them and fills them in once every
// hash and length is known.
//   stripe:  u64 satellite count S; S × {i32 catalog number, u64 records}
//            in ascending catalog number; u32 designator count D; D ×
//            {u32 length, bytes}, the stripe's designators in first-use
//            order; then the catalog's 15 columns (tle::kColumnWidths), each
//            one block of the stripe's N records in satellite then epoch
//            order, the designator block holding indices below D.  The
//            blocks fill the section exactly (97 × N bytes), so the decoder
//            lays the catalog out from the directories and copies each
//            block straight into its satellites' rows.  Stripes hold whole
//            satellites, cut at fixed record counts, so the bytes are
//            independent of the writer's thread count.
//   quality: the report's "tle" stage and its quarantined records: u8 1
//            when the stage exists (then u64 accepted, u64 repaired, u32
//            category count, that many u64), else 0; u64 record count; each
//            record's source, u64 line, u8 category, message and snippet
//            (strings as u32 length, bytes).
// All integers little-endian (the encoder static_asserts a little-endian
// host); doubles are stored as their IEEE-754 bit patterns so reload is
// bit-exact.  XXH64 is the format's one hash: the fingerprint's windows and
// their combination, the file name and every integrity check.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "diag/diag.hpp"
#include "io/file.hpp"
#include "spaceweather/dst_index.hpp"
#include "tle/catalog.hpp"

namespace cosmicdance::obs {
class Metrics;
}  // namespace cosmicdance::obs

namespace cosmicdance::io {

/// Bumped on any change to the payload encoding; a version mismatch is a
/// silent reject-and-reparse, never a migration.  v3 added the section
/// table; v4 hashes each input separately in the state section; v5 hashes
/// with XXH64 instead of FNV-1a; v6 keeps v5's bytes but marks files whose
/// records passed the validation that rejects non-finite fields; v7 checks
/// the section table and every section with XXH64 instead of CRC32C; v8
/// caches the TLE parse alone: no Dst section, and a 16-byte state section;
/// v9 stores each catalog stripe as column blocks; v10 records the TLE
/// input's windowed fingerprint instead of its plain XXH64; v11 stores each
/// fact once: the ingest state in the self-hashed header, sections known by
/// their place (DESIGN.md §13, §14, §18).
inline constexpr std::uint32_t kSnapshotFormatVersion = 11;

/// XXH64 (seed 0) of `bytes` — the fingerprint's windows and their
/// combination, the cache file name and the head and section checks all
/// use it.
[[nodiscard]] std::uint64_t xxh64(std::string_view bytes);

/// The fingerprint of zero bytes (no windows, then the length 0): the
/// recorded hash of an empty input.
inline constexpr std::uint64_t kEmptyInputHash = 0x34C96ACDCADB1BBBULL;

/// What a snapshot knows about the TLE input it was built from: enough to
/// recognise the exact same bytes, and an unchanged prefix of grown ones.
/// Everything else an append needs (where the prefix's lines end, whether
/// it leaves a line 1 unpaired) is read from the current bytes once the
/// prefix hash has proved them the recorded input.
struct IngestState {
  std::uint64_t tle_len = 0;    ///< TLE input size in bytes
  std::uint64_t tle_hash = kEmptyInputHash;  ///< the TLE bytes' fingerprint

  bool operator==(const IngestState&) const = default;
};

/// How the current TLE input relates to the one a snapshot was built from.
enum class InputMatch {
  kExact,     ///< byte-identical input: plain cache hit
  kAppend,    ///< unchanged prefix plus appended bytes: parse only the tail
  kMismatch,  ///< anything else: reject and reparse from scratch
};

struct InputClassification {
  InputMatch match = InputMatch::kMismatch;
  /// State of the *current* input (what the next base records).
  IngestState current;
  /// Newlines in the recorded prefix when the input grew past it and the
  /// prefix's hash matched (0 otherwise): an append's tail starts on line
  /// prefix_lines + 1.
  std::uint64_t prefix_lines = 0;
};

/// Classify the current TLE input against a snapshot's recorded state by
/// its fingerprint: the XXH64 of its 4 MiB windows' XXH64s from byte 0,
/// then its length.  The windows are hashed over `num_threads` workers (0 =
/// all hardware threads, 1 = serial); a recorded prefix shares the whole
/// ones below its end, so only its last partial window is hashed twice, and
/// when the input grew, the prefix's windows count their newlines in the
/// same loop.  kAppend also requires the prefix to end a line and to leave
/// no line 1 unpaired (tle::append_boundary_clean).
[[nodiscard]] InputClassification classify_inputs(const IngestState& base,
                                                  std::string_view tle_bytes,
                                                  int num_threads = 1);

/// classify_inputs over a mapped input, dropping each window's pages once
/// hashed (MappedFile::drop_pages), so the pass holds about a window a
/// worker of the input resident, not the part it has read.
[[nodiscard]] InputClassification classify_inputs(const IngestState& base,
                                                  const MappedFile& tle,
                                                  int num_threads = 1);

/// The IngestState of a TLE input (fingerprinted over all hardware
/// threads).  The Dst argument is ignored: only the TLE parse is cached.
/// This two-input form stays until the benchmark harness
/// (perfbench/layers.cpp) moves to classify_inputs.
[[nodiscard]] IngestState ingest_state_of(std::string_view dst_bytes,
                                          std::string_view tle_bytes);

/// The parsed inputs a pipeline holds.  A snapshot stores the TLE half:
/// the catalog, the report's policy, "tle" stage and records, and the
/// recorded state.  The Dst series and the report's "wdc" stage come from
/// the Dst parse every run makes, so a decoded snapshot carries an empty
/// series.
struct SnapshotData {
  spaceweather::DstIndex dst;
  tle::TleCatalog catalog;
  diag::DataQualityReport quality;
  IngestState state;
};

/// Snapshot file path for a TLE input: `<xxh64(tle_path)>.cdsnap`.  The
/// name hashes the *path* (not the contents), so the same input maps to a
/// stable file whose stored ingest state then decides hit/append/reject —
/// editing the input is detected as a stale snapshot at load time, not
/// silently shadowed by a new file.
[[nodiscard]] std::string snapshot_cache_path(const std::string& cache_dir,
                                              const std::string& tle_path);

/// Sections the writer encodes at once per resolved worker: it streams a
/// snapshot a wave of kSaveWaveSectionsPerWorker × workers sections at a
/// time, enough to keep every worker busy while it holds one wave of
/// encoded bytes, never the whole file.
inline constexpr std::size_t kSaveWaveSectionsPerWorker = 2;

/// Serialise a snapshot (header + section table + sections) into `out`
/// from its current position: the state, the quality report's policy, the
/// catalog and the report's "tle" stage.  Sections are encoded over
/// `num_threads` workers (0 = all hardware threads, 1 = serial) a wave at a
/// time and appended in order; the header and table go in front of them
/// last, so `out` must be seekable.  The bytes are identical at any thread
/// count.  Returns the bytes written, leaving `out` after them; gauge
/// `snapshot.save_peak_buffer_bytes` gets the most encoded section bytes
/// held at once.  Throws IoError when `out` fails.
std::uint64_t write_snapshot(std::ostream& out, const SnapshotData& data,
                             obs::Metrics* metrics = nullptr,
                             int num_threads = 1);

/// Parse snapshot bytes.  Returns nullopt — never throws — when anything
/// disagrees: magic, version, policy, the head hash, section lengths that
/// do not fill the bytes exactly, a section hash, or a section that decodes
/// inconsistently.  The format tests' seam; a run loads through
/// load_snapshot.
[[nodiscard]] std::optional<SnapshotData> decode_snapshot(
    std::string_view bytes, diag::ParsePolicy policy, int num_threads = 1);

/// A section of a checked snapshot: where its bytes lie in the file, and
/// the XXH64 its table entry records for them.
struct SnapshotSection {
  std::size_t offset = 0;
  std::size_t length = 0;
  std::uint64_t hash = 0;
};

/// A snapshot file, mapped once, and what its checked head records: the
/// ingest state a run classifies its input against, the policy, and the
/// sections load_snapshot then decodes from the same mapping (the catalog
/// stripes, then the quality section).
struct SnapshotFile {
  MappedFile mapping;
  IngestState state;
  diag::ParsePolicy policy = diag::ParsePolicy::kStrict;
  std::vector<SnapshotSection> sections;
};

/// Map a snapshot file and check its head as decode_snapshot does (magic,
/// version, `policy`, the head hash, lengths that fill the file), reading
/// no section.  A missing/unreadable file is a cache miss (nullopt, no
/// counter); a present-but-invalid file bumps `snapshot.rejected`.
[[nodiscard]] std::optional<SnapshotFile> open_snapshot(
    const std::string& path, diag::ParsePolicy policy,
    obs::Metrics* metrics = nullptr);

/// Decode an opened snapshot's sections, trusting the head open_snapshot
/// checked.  A section that fails its hash or decode bumps
/// `snapshot.rejected` and returns nullopt.  Whether the snapshot
/// matches the current input is the caller's decision, made before the
/// load (SnapshotFile::state, classify_inputs); the caller bumps
/// `snapshot.loaded` when it uses the data.  A successful load adds the
/// materialised record count to `snapshot.load_records` (the
/// warm-throughput numerator) and the checked head's section count to the
/// scheduling counter `snapshot.load_sections`.  Sections are validated and
/// deserialised over `num_threads` workers; results are bit-identical at
/// any value.  Each section's pages are dropped once decoded
/// (MappedFile::drop_pages), so the load holds the catalog it builds and
/// the sections in flight, not the file as well.  Wall time lands in
/// phase "snapshot.load".
[[nodiscard]] std::optional<SnapshotData> load_snapshot(
    const SnapshotFile& file, obs::Metrics* metrics = nullptr,
    int num_threads = 1);

/// Write a snapshot file (atomically: per-writer temp file, then swapped
/// in, creating the cache directory if needed).  The temp name embeds the
/// pid and a process-wide serial, so concurrent writers — several
/// processes or threads sharing a cache dir — never interleave writes into
/// one temp file.  Over an existing regular file the temp file and the
/// target swap names (renameat2 RENAME_EXCHANGE) and the old file is
/// unlinked, which spares ext4 the flush of the whole new file it makes
/// inside a rename() over an existing one; with no target yet it is a
/// plain rename.  Either step is atomic, so the last writer wins with a
/// complete file.  Best-effort: returns false and bumps
/// `snapshot.write_failed` on any filesystem error instead of throwing — a
/// read-only cache dir must not break the pipeline; the temp file goes
/// too, even when every byte was written and only the rename failed (a
/// directory at the target fails the save).  Success bumps
/// `snapshot.written` and adds the file size to `snapshot.save_bytes`.
/// The bytes come from write_snapshot, streamed into the temp file over
/// `num_threads` workers (identical at any value).  Wall time lands in
/// phase "snapshot.save", the swap or rename and the old file's unlink in
/// its nested phase "snapshot.replace".
bool save_snapshot(const std::string& path, const SnapshotData& data,
                   obs::Metrics* metrics = nullptr, int num_threads = 1);

}  // namespace cosmicdance::io
