// Differential and failure-matrix tests for the binary snapshot cache
// (DESIGN.md §13).
//
// The cache's contract is "bit-identical or rebuilt": a warm run must
// reproduce the cold run's catalog, Dst series and quality report exactly
// (the snapshot holds the TLE parse; every run parses the Dst itself),
// and *any* disagreement — truncation, a flipped check-hash byte, a stale content
// hash after an input edit, a format-version bump, a parse-policy mismatch
// — must silently fall back to the text path (counter `snapshot.rejected`),
// produce the same outputs as a cache-less run, and rewrite the snapshot.
// A deterministic corruption loop additionally proves the decoder never
// escapes as an exception.  The MappedFile auto/fallback readers are
// checked byte-identical here too, since the hash and the parsers both
// consume their views.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/export.hpp"
#include "core/pipeline.hpp"
#include "diag/diag.hpp"
#include "io/file.hpp"
#include "io/snapshot.hpp"
#include "obs/obs.hpp"
#include "spaceweather/dst_index.hpp"
#include "spaceweather/wdc.hpp"
#include "support/cdsnap_layout.hpp"
#include "support/make_tle.hpp"
#include "support/resident.hpp"
#include "support/temp_dir.hpp"
#include "timeutil/datetime.hpp"
#include "tle/catalog.hpp"
#include "tle/tle.hpp"

namespace cosmicdance {
namespace {

using diag::ParsePolicy;
using test_support::make_tle;
namespace cdsnap = test_support::cdsnap;
using test_support::resident_bytes;
using test_support::ScopedTempDir;

// ---- corpus builders --------------------------------------------------------

/// `satellites` objects, two element sets each, as TLE text.
std::string tle_corpus(int satellites) {
  std::string text;
  for (int i = 0; i < satellites; ++i) {
    for (int elset = 0; elset < 2; ++elset) {
      const tle::TleLines formatted =
          tle::format_tle(make_tle(10001 + i, 0.5 * i + 2.0 * elset));
      text += formatted.line1;
      text.push_back('\n');
      text += formatted.line2;
      text.push_back('\n');
    }
  }
  return text;
}

/// A five-day Dst ramp over the same window, as WDC text.
std::string wdc_corpus() {
  std::vector<double> values;
  for (int h = 0; h < 5 * 24; ++h) values.push_back(-10.0 - 0.5 * h);
  return spaceweather::to_wdc(spaceweather::DstIndex(
      timeutil::make_datetime(2024, 5, 1), std::move(values)));
}

// ---- harness ----------------------------------------------------------------

/// Open a snapshot file and decode all of it, whatever state it records.
std::optional<io::SnapshotData> load_file(const std::string& path,
                                          ParsePolicy policy,
                                          obs::Metrics* metrics = nullptr,
                                          int threads = 1) {
  const std::optional<io::SnapshotFile> file =
      io::open_snapshot(path, policy, metrics);
  if (!file.has_value()) return std::nullopt;
  return io::load_snapshot(*file, metrics, threads);
}

struct TestInputs {
  ScopedTempDir dir;
  std::string dst_path;
  std::string tle_path;
  std::string cache_dir;

  [[nodiscard]] std::string snapshot_path() const {
    return io::snapshot_cache_path(cache_dir, tle_path);
  }
};

TestInputs write_inputs(const std::string& tag, const std::string& tle_text) {
  ScopedTempDir dir("cdsnap_" + tag);
  const std::string root = dir.path();
  TestInputs inputs{std::move(dir), root + "/dst.wdc", root + "/catalog.tle",
                    root + "/cache"};
  io::write_file(inputs.dst_path, wdc_corpus());
  io::write_file(inputs.tle_path, tle_text);
  return inputs;
}

/// Everything the ingestion layer feeds downstream, in comparable form.
/// Equality here is bit-exactness: the double vectors compare with ==, and
/// the quality JSON embeds quarantine counters, line numbers, snippets and
/// their order.
struct RunOutput {
  std::string catalog_text;
  timeutil::HourIndex dst_start = 0;
  std::vector<double> dst_values;
  std::string quality_json;
};

void expect_identical(const RunOutput& a, const RunOutput& b) {
  EXPECT_EQ(a.catalog_text, b.catalog_text);
  EXPECT_EQ(a.dst_start, b.dst_start);
  EXPECT_EQ(a.dst_values, b.dst_values);
  EXPECT_EQ(a.quality_json, b.quality_json);
}

RunOutput run_pipeline(const TestInputs& inputs, ParsePolicy policy,
                       int threads, bool use_cache,
                       obs::Metrics* metrics = nullptr) {
  core::PipelineConfig config;
  config.parse_policy = policy;
  config.num_threads = threads;
  config.metrics = metrics;
  if (use_cache) config.cache_dir = inputs.cache_dir;
  const core::CosmicDance pipeline =
      core::CosmicDance::from_files(inputs.dst_path, inputs.tle_path, config);
  RunOutput out;
  out.catalog_text = pipeline.catalog().to_text();
  out.dst_start = pipeline.dst().start_hour();
  out.dst_values.assign(pipeline.dst().values().begin(),
                        pipeline.dst().values().end());
  out.quality_json = pipeline.quality_report().to_json();
  return out;
}

std::uint64_t counter(const obs::Metrics& metrics, const std::string& name) {
  const obs::MetricsReport report = metrics.snapshot();
  const auto it = report.counters.find(name);
  return it != report.counters.end() ? it->second : 0;
}

/// The ingest state a snapshot of `tle_text` records.
io::IngestState state_of(std::string_view tle_text) {
  return io::classify_inputs(io::IngestState{}, tle_text).current;
}

/// The fingerprint's window: 4 MiB from byte 0.
constexpr std::size_t kWindow = std::size_t{4} << 20;

/// The fingerprint as the format defines it, from the plain digest: XXH64
/// of each window's XXH64, then the length, each a little-endian u64.
std::uint64_t reference_fingerprint(std::string_view bytes) {
  std::string words;
  const auto put = [&words](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) words.push_back(static_cast<char>(v >> (8 * i)));
  };
  for (std::size_t at = 0; at < bytes.size(); at += kWindow) {
    put(io::xxh64(bytes.substr(at, kWindow)));
  }
  put(bytes.size());
  return io::xxh64(words);
}

/// A snapshot's bytes, from the writer save_snapshot streams its files with.
std::string snapshot_bytes(const io::SnapshotData& data, int threads = 1) {
  std::ostringstream out;
  io::write_snapshot(out, data, nullptr, threads);
  return std::move(out).str();
}

/// The failure-matrix driver: seed the cache with a cold run, corrupt the
/// snapshot via `mutate`, then prove the next run rejects it, matches a
/// cache-less parse bit for bit, rewrites the snapshot, and that the run
/// after *that* hits the rewritten one.
template <typename Mutator>
void expect_reject_and_fallback(const TestInputs& inputs, ParsePolicy policy,
                                const Mutator& mutate) {
  run_pipeline(inputs, policy, 1, /*use_cache=*/true);
  ASSERT_TRUE(std::filesystem::exists(inputs.snapshot_path()));
  mutate(inputs);

  obs::Metrics rejected_run;
  const RunOutput fallback =
      run_pipeline(inputs, policy, 1, /*use_cache=*/true, &rejected_run);
  EXPECT_EQ(counter(rejected_run, "snapshot.rejected"), 1u);
  EXPECT_EQ(counter(rejected_run, "ingest.cache_hit"), 0u);
  EXPECT_EQ(counter(rejected_run, "snapshot.loaded"), 0u);
  EXPECT_EQ(counter(rejected_run, "snapshot.written"), 1u)
      << "a rejected snapshot must be rewritten from the fresh parse";

  const RunOutput uncached =
      run_pipeline(inputs, policy, 1, /*use_cache=*/false);
  expect_identical(fallback, uncached);

  obs::Metrics warm_run;
  const RunOutput warm =
      run_pipeline(inputs, policy, 1, /*use_cache=*/true, &warm_run);
  EXPECT_EQ(counter(warm_run, "ingest.cache_hit"), 1u);
  EXPECT_EQ(counter(warm_run, "snapshot.rejected"), 0u);
  expect_identical(warm, uncached);
}

// ---- round trip -------------------------------------------------------------

TEST(SnapshotTest, EncodeDecodeRoundTripIsBitExact) {
  // A pipeline's parsed inputs, Dst and all: the snapshot keeps the TLE
  // half — the catalog, the report's policy and "tle" stage, and the TLE
  // state — and decodes with an empty Dst series.
  const std::string tle_text = tle_corpus(4);
  const std::string wdc_text = wdc_corpus();

  diag::ParseLog log(ParsePolicy::kTolerant);
  spaceweather::DstIndex dst = spaceweather::from_wdc(wdc_text, &log, "dst.wdc");
  diag::ParseLog tle_log(ParsePolicy::kTolerant);
  tle::TleCatalog catalog;
  catalog.add_from_text(tle_text,
                        tle::IngestOptions{&tle_log, 1, "catalog.tle"});
  diag::DataQualityReport quality = log.report();
  quality.merge(tle_log.report());
  ASSERT_EQ(quality.stages.size(), 2u);
  const io::SnapshotData data{dst, catalog, quality, state_of(tle_text)};

  const std::string bytes = snapshot_bytes(data);

  const std::optional<io::SnapshotData> decoded =
      io::decode_snapshot(bytes, ParsePolicy::kTolerant);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->catalog.to_text(), catalog.to_text());
  EXPECT_TRUE(decoded->dst.empty());
  EXPECT_EQ(decoded->quality.to_json(), tle_log.report().to_json());
  EXPECT_EQ(decoded->state.tle_hash, reference_fingerprint(tle_text));
  EXPECT_EQ(decoded->state.tle_len, tle_text.size());

  // A policy mismatch rejects before any section is decoded, and so does
  // an ingest state edited in the header: the head hash covers it.
  EXPECT_FALSE(io::decode_snapshot(bytes, ParsePolicy::kStrict));
  std::string tampered = bytes;
  tampered[cdsnap::kTleHashAt] = static_cast<char>(tampered[cdsnap::kTleHashAt] + 1);
  EXPECT_FALSE(io::decode_snapshot(tampered, ParsePolicy::kTolerant));
}

// ---- hit vs miss ------------------------------------------------------------

TEST(SnapshotTest, ColdMissParsesAndWritesWarmHitLoads) {
  const TestInputs inputs = write_inputs("hit_vs_miss", tle_corpus(4));

  obs::Metrics cold;
  const RunOutput first =
      run_pipeline(inputs, ParsePolicy::kStrict, 1, /*use_cache=*/true, &cold);
  EXPECT_EQ(counter(cold, "snapshot.written"), 1u);
  EXPECT_EQ(counter(cold, "ingest.cache_hit"), 0u);
  EXPECT_EQ(counter(cold, "snapshot.rejected"), 0u);
  EXPECT_GT(counter(cold, "tle.records_parsed"), 0u);
  EXPECT_TRUE(std::filesystem::exists(inputs.snapshot_path()));

  obs::Metrics warm;
  const RunOutput second =
      run_pipeline(inputs, ParsePolicy::kStrict, 1, /*use_cache=*/true, &warm);
  EXPECT_EQ(counter(warm, "ingest.cache_hit"), 1u);
  EXPECT_EQ(counter(warm, "snapshot.loaded"), 1u);
  EXPECT_EQ(counter(warm, "snapshot.written"), 0u);
  EXPECT_EQ(counter(warm, "tle.records_parsed"), 0u)
      << "a cache hit must not parse any TLE text";
  expect_identical(first, second);

  const RunOutput uncached =
      run_pipeline(inputs, ParsePolicy::kStrict, 1, /*use_cache=*/false);
  expect_identical(second, uncached);
}

TEST(SnapshotTest, ThreadCountsShareTheCacheBitIdentically) {
  const TestInputs inputs = write_inputs("threads", tle_corpus(6));

  const RunOutput serial_cold =
      run_pipeline(inputs, ParsePolicy::kStrict, 1, /*use_cache=*/true);
  obs::Metrics warm;
  const RunOutput parallel_warm =
      run_pipeline(inputs, ParsePolicy::kStrict, 0, /*use_cache=*/true, &warm);
  EXPECT_EQ(counter(warm, "ingest.cache_hit"), 1u);
  expect_identical(serial_cold, parallel_warm);

  const RunOutput parallel_uncached =
      run_pipeline(inputs, ParsePolicy::kStrict, 0, /*use_cache=*/false);
  expect_identical(parallel_warm, parallel_uncached);
}

// ---- the readers behind the hash and the parsers ---------------------------

TEST(SnapshotTest, MappedAndFallbackReadersAreByteIdentical) {
  const TestInputs inputs = write_inputs("readers", tle_corpus(4));

  const io::MappedFile mapped(inputs.tle_path, io::MappedFile::Mode::kAuto);
  const io::MappedFile fallback(inputs.tle_path,
                                io::MappedFile::Mode::kFallbackRead);
  EXPECT_FALSE(fallback.is_mapped());
  ASSERT_EQ(mapped.view(), fallback.view());

  tle::TleCatalog from_mapped;
  tle::TleCatalog from_fallback;
  from_mapped.add_from_text(mapped.view());
  from_fallback.add_from_text(fallback.view());
  EXPECT_EQ(from_mapped.to_text(), from_fallback.to_text());

  // The content hash — the cache key — must agree across readers too.
  EXPECT_EQ(io::xxh64(mapped.view()), io::xxh64(fallback.view()));
}

// ---- failure matrix ---------------------------------------------------------

TEST(SnapshotTest, TruncatedSnapshotFallsBack) {
  const TestInputs inputs = write_inputs("truncated", tle_corpus(4));
  expect_reject_and_fallback(inputs, ParsePolicy::kStrict,
                             [](const TestInputs& t) {
                               std::string bytes = io::read_file(t.snapshot_path());
                               bytes.resize(bytes.size() / 2);
                               io::write_file(t.snapshot_path(), bytes);
                             });
}

TEST(SnapshotTest, FlippedCrcHeaderByteFallsBack) {
  const TestInputs inputs = write_inputs("crc_header", tle_corpus(4));
  expect_reject_and_fallback(inputs, ParsePolicy::kStrict,
                             [](const TestInputs& t) {
                               std::string bytes = io::read_file(t.snapshot_path());
                               ASSERT_GT(bytes.size(), cdsnap::kHeaderBytes);
                               bytes[cdsnap::kHeadHashAt] ^= 0x01;  // head XXH64
                               io::write_file(t.snapshot_path(), bytes);
                             });
}

TEST(SnapshotTest, FlippedPayloadByteFailsTheCrcAndFallsBack) {
  const TestInputs inputs = write_inputs("crc_payload", tle_corpus(4));
  expect_reject_and_fallback(inputs, ParsePolicy::kStrict,
                             [](const TestInputs& t) {
                               std::string bytes = io::read_file(t.snapshot_path());
                               ASSERT_GT(bytes.size(), 44u);
                               bytes[44 + (bytes.size() - 44) / 2] ^= 0x10;
                               io::write_file(t.snapshot_path(), bytes);
                             });
}

TEST(SnapshotTest, FormatVersionBumpFallsBack) {
  // Any version but the current one rejects: a newer file, a v10 file (a
  // 16-byte state section, and table entries with a kind and an offset), a
  // v9 file (the TLE input's plain XXH64 as its state hash), a v7 file (a
  // Dst section and a 49-byte state section), a v6 file (checked with
  // CRC32C in a 40-byte header and 24-byte table entries), a v5 file (its
  // records may hold non-finite fields that validation now rejects), and a
  // v4 file (FNV-1a input hashes).
  for (const std::uint32_t version :
       {io::kSnapshotFormatVersion + 1, 10u, 9u, 7u, 6u, 5u, 4u}) {
    SCOPED_TRACE("version " + std::to_string(version));
    const TestInputs inputs =
        write_inputs("version" + std::to_string(version), tle_corpus(4));
    expect_reject_and_fallback(
        inputs, ParsePolicy::kStrict, [version](const TestInputs& t) {
          std::string bytes = io::read_file(t.snapshot_path());
          ASSERT_GT(bytes.size(), cdsnap::kHeaderBytes);
          bytes[cdsnap::kVersionAt] = static_cast<char>(version);  // u32 LE, low byte
          io::write_file(t.snapshot_path(), bytes);
        });
  }
}

TEST(SnapshotTest, BytesAfterThePayloadFallBack) {
  // The file ends where the section lengths end: anything after it (40
  // bytes, the size of the header earlier builds appended layers behind,
  // or a single byte) rejects instead of being skipped.
  for (const std::size_t extra : {std::size_t{40}, std::size_t{1}}) {
    SCOPED_TRACE(std::to_string(extra) + " trailing bytes");
    const TestInputs inputs =
        write_inputs("trailing" + std::to_string(extra), tle_corpus(4));
    expect_reject_and_fallback(
        inputs, ParsePolicy::kStrict, [extra](const TestInputs& t) {
          const std::string bytes = io::read_file(t.snapshot_path());
          io::append_file(t.snapshot_path(), bytes.substr(0, extra));
        });
  }
}

TEST(SnapshotTest, EditedInputMakesTheSnapshotStale) {
  const TestInputs inputs = write_inputs("stale", tle_corpus(4));
  // The snapshot file name hashes only the *paths*, so editing the TLE file
  // in place leaves the old snapshot exactly where the next run looks — the
  // stored content hash is the only thing that can catch it.  The edit is
  // in place (same length, different bytes): growth by appended records is
  // no longer stale, it is the delta fast path (delta_snapshot_test.cpp).
  expect_reject_and_fallback(
      inputs, ParsePolicy::kStrict, [](const TestInputs& t) {
        std::string text = io::read_file(t.tle_path);
        const std::size_t designator = text.find("20001A");
        ASSERT_NE(designator, std::string::npos);
        text[designator + 5] = 'B';  // restamp a designator mid-prefix
        io::write_file(t.tle_path, text);
      });
}

TEST(SnapshotTest, AStaleSnapshotIsRejectedWithoutADecode) {
  // The recorded state is read and the input fingerprinted before any
  // section is decoded, so a valid snapshot of an input edited in place is
  // rejected without loading it.
  const TestInputs inputs = write_inputs("stale_no_decode", tle_corpus(4));
  run_pipeline(inputs, ParsePolicy::kStrict, 1, /*use_cache=*/true);
  std::string text = io::read_file(inputs.tle_path);
  const std::size_t designator = text.find("20001A");
  ASSERT_NE(designator, std::string::npos);
  text[designator + 5] = 'B';
  io::write_file(inputs.tle_path, text);

  obs::Metrics metrics;
  const RunOutput stale =
      run_pipeline(inputs, ParsePolicy::kStrict, 1, /*use_cache=*/true, &metrics);
  EXPECT_EQ(counter(metrics, "snapshot.rejected"), 1u);
  EXPECT_EQ(counter(metrics, "snapshot.loaded"), 0u);
  EXPECT_EQ(counter(metrics, "snapshot.load_records"), 0u);
  EXPECT_EQ(metrics.snapshot().phases.count("snapshot.load"), 0u);
  EXPECT_EQ(metrics.snapshot().phases.count("ingest.fingerprint"), 1u);
  expect_identical(stale, run_pipeline(inputs, ParsePolicy::kStrict, 1,
                                       /*use_cache=*/false));
}

TEST(SnapshotTest, ShrunkInputMakesTheSnapshotStale) {
  const TestInputs inputs = write_inputs("shrunk", tle_corpus(4));
  // Truncation can never be served incrementally — the snapshot has
  // already committed records past the new end of file.
  expect_reject_and_fallback(
      inputs, ParsePolicy::kStrict, [](const TestInputs& t) {
        std::string text = io::read_file(t.tle_path);
        text.resize(text.size() - 140);  // drop the last two-line record
        io::write_file(t.tle_path, text);
      });
}

TEST(SnapshotTest, ParsePolicyMismatchFallsBack) {
  const TestInputs inputs = write_inputs("policy", tle_corpus(4));
  // Cold strict run seeds the cache; a tolerant run must not trust a
  // strict-built snapshot (its header records the other policy) —
  // it rejects, reparses tolerantly and rewrites.  The driver's final warm
  // run then proves the rewritten snapshot serves tolerant hits.
  expect_reject_and_fallback(
      inputs, ParsePolicy::kTolerant, [](const TestInputs& t) {
        std::filesystem::remove(t.snapshot_path());
        run_pipeline(t, ParsePolicy::kStrict, 1, /*use_cache=*/true);
      });
}

// ---- diagnostics round trip -------------------------------------------------

TEST(SnapshotTest, QuarantineDiagnosticsSurviveTheCache) {
  // Corrupt one record's checksum so the tolerant parse quarantines it; the
  // warm run must report the identical quarantine — same counters, same
  // line numbers, same snippet order — without ever seeing the text.
  std::string text = tle_corpus(4);
  const std::size_t second_line1 = text.find("\n1 ", text.find("\n2 ")) + 1;
  ASSERT_NE(second_line1, std::string::npos + 1);
  text[second_line1 + 68] =
      text[second_line1 + 68] == '0' ? '1' : '0';  // break the checksum
  const TestInputs inputs = write_inputs("quarantine", text);

  obs::Metrics cold;
  const RunOutput first = run_pipeline(inputs, ParsePolicy::kTolerant, 1,
                                       /*use_cache=*/true, &cold);
  EXPECT_NE(first.quality_json.find("quarantined"), std::string::npos);

  obs::Metrics warm;
  const RunOutput second = run_pipeline(inputs, ParsePolicy::kTolerant, 1,
                                        /*use_cache=*/true, &warm);
  EXPECT_EQ(counter(warm, "ingest.cache_hit"), 1u);
  expect_identical(first, second);

  const RunOutput uncached =
      run_pipeline(inputs, ParsePolicy::kTolerant, 1, /*use_cache=*/false);
  expect_identical(second, uncached);
}

// ---- corruption fuzz --------------------------------------------------------

TEST(SnapshotTest, RandomSingleBitCorruptionNeverThrows) {
  const TestInputs inputs = write_inputs("fuzz", tle_corpus(3));
  run_pipeline(inputs, ParsePolicy::kStrict, 1, /*use_cache=*/true);
  const std::string valid = io::read_file(inputs.snapshot_path());

  const std::optional<io::SnapshotData> baseline =
      io::decode_snapshot(valid, ParsePolicy::kStrict);
  ASSERT_TRUE(baseline.has_value());

  Rng rng(20260807);
  for (int i = 0; i < 200; ++i) {
    std::string bytes = valid;
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1));
    bytes[pos] = static_cast<char>(
        bytes[pos] ^ static_cast<char>(1 << rng.uniform_int(0, 7)));
    std::optional<io::SnapshotData> decoded;
    // Never an exception: any disagreement must surface as nullopt.  Every
    // byte is under a check (the head hash covers the header and the table,
    // each section its own hash), so no flip decodes.
    EXPECT_NO_THROW(decoded = io::decode_snapshot(bytes, ParsePolicy::kStrict))
        << "decode threw on a bit flip at byte " << pos;
    EXPECT_FALSE(decoded.has_value())
        << "accepted a corrupted snapshot, flip at byte " << pos;
  }
}

// ---- concurrent writers -----------------------------------------------------

TEST(SnapshotTest, ConcurrentSaversNeverTearTheSnapshot) {
  // Several writers hammer one snapshot path with *different* valid
  // snapshots (two daemons sharing a cache dir, or reload racing a warm
  // start).  Because each save writes its own pid+serial temp file and the
  // final rename is atomic, every observable state of the file must be one
  // complete variant — a reader must never decode a torn hybrid.  Before
  // the per-writer temp names, all savers shared one ".tmp" file and
  // interleaved writes could rename a spliced file into place.
  constexpr int kWriters = 4;
  constexpr int kIterations = 25;

  const ScopedTempDir dir("cdsnap_racers");
  const std::string path = dir.path() + "/cache/snapshot.cdsnap";

  // One distinct, decently sized snapshot per writer, plus its exact
  // encoded bytes for the end-state check.
  std::vector<io::SnapshotData> variants;
  std::vector<std::string> encoded;
  for (int w = 0; w < kWriters; ++w) {
    const std::string tle_text = tle_corpus(40 + 10 * w);
    diag::ParseLog log(ParsePolicy::kTolerant);
    tle::TleCatalog catalog;
    catalog.add_from_text(tle_text,
                          tle::IngestOptions{&log, 1, "catalog.tle"});
    variants.push_back(io::SnapshotData{{}, std::move(catalog), log.report(),
                                        state_of(tle_text)});
    encoded.push_back(snapshot_bytes(variants.back()));
  }

  ASSERT_TRUE(io::save_snapshot(path, variants[0]));

  std::atomic<bool> start{false};
  std::atomic<int> torn_reads{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      while (!start.load()) {
      }
      for (int i = 0; i < kIterations; ++i) {
        EXPECT_TRUE(io::save_snapshot(path, variants[static_cast<std::size_t>(w)]));
      }
    });
  }
  // A concurrent reader: every observed file state must decode.
  threads.emplace_back([&] {
    while (!start.load()) {
    }
    for (int i = 0; i < kWriters * kIterations; ++i) {
      const std::optional<io::SnapshotData> decoded =
          load_file(path, ParsePolicy::kTolerant);
      if (!decoded.has_value()) torn_reads.fetch_add(1);
    }
  });
  start.store(true);
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(torn_reads.load(), 0) << "a reader saw a torn snapshot file";

  // The survivor is one complete variant, byte for byte.
  const std::string final_bytes = io::read_file(path);
  bool matches_one = false;
  for (const std::string& bytes : encoded) {
    if (final_bytes == bytes) matches_one = true;
  }
  EXPECT_TRUE(matches_one) << "final snapshot is not any writer's output";

  // And nobody leaked a temp file.
  for (const auto& entry :
       std::filesystem::directory_iterator(dir.path() + "/cache")) {
    EXPECT_EQ(entry.path().string().find(".tmp"), std::string::npos)
        << "stray temp file: " << entry.path();
  }
}

// ---- section format ---------------------------------------------------------

/// Parsed TLE data over `satellites` objects (two element sets each), with
/// the matching ingest state — what a snapshot holds, and the input to the
/// encoders under test.
io::SnapshotData snapshot_data_of(const std::string& tle_text,
                                  ParsePolicy policy) {
  diag::ParseLog log(policy);
  tle::TleCatalog catalog;
  catalog.add_from_text(tle_text, tle::IngestOptions{&log, 1, "catalog.tle"});
  return io::SnapshotData{{}, std::move(catalog), log.report(),
                          state_of(tle_text)};
}

io::SnapshotData make_snapshot_data(int satellites, ParsePolicy policy) {
  return snapshot_data_of(tle_corpus(satellites), policy);
}

void expect_same_decoded(const io::SnapshotData& a, const io::SnapshotData& b) {
  EXPECT_EQ(a.catalog.to_text(), b.catalog.to_text());
  EXPECT_EQ(a.quality.to_json(), b.quality.to_json());
  EXPECT_EQ(a.state.tle_len, b.state.tle_len);
  EXPECT_EQ(a.state.tle_hash, b.state.tle_hash);
}

TEST(SnapshotSectionsTest, EncodeAndDecodeAreThreadCountInvariant) {
  // 9000 satellites x 2 element sets crosses the stripe target, so the
  // file carries multiple catalog stripes and the parallel encode/decode
  // paths genuinely run multi-section.
  const io::SnapshotData data = make_snapshot_data(9000, ParsePolicy::kStrict);
  const std::string serial = snapshot_bytes(data, 1);
  ASSERT_GT(cdsnap::section_count(serial), 2u)
      << "corpus too small to produce multiple catalog stripes";
  for (const int threads : {4, 8}) {
    EXPECT_EQ(snapshot_bytes(data, threads), serial)
        << "encode bytes differ at " << threads << " threads";
  }
  const std::optional<io::SnapshotData> reference =
      io::decode_snapshot(serial, ParsePolicy::kStrict, 1);
  ASSERT_TRUE(reference.has_value());
  expect_same_decoded(*reference, data);
  for (const int threads : {4, 8}) {
    const std::optional<io::SnapshotData> decoded =
        io::decode_snapshot(serial, ParsePolicy::kStrict, threads);
    ASSERT_TRUE(decoded.has_value());
    expect_same_decoded(*decoded, *reference);
  }
}

TEST(SnapshotSectionsTest, TruncatedSectionTableRejects) {
  const io::SnapshotData data = make_snapshot_data(4, ParsePolicy::kStrict);
  const std::string bytes = snapshot_bytes(data);
  ASSERT_EQ(cdsnap::section_count(bytes), 2u);  // one stripe, the quality
  // Chop the file after the first entry: the table no longer fits the
  // file, and no payload size is left to restate.
  std::string chopped = bytes.substr(0, cdsnap::entry_at(1));
  EXPECT_FALSE(io::decode_snapshot(chopped, ParsePolicy::kStrict).has_value());
  // Restate the count to the entry left and reseal the head: the table
  // fits, but no section bytes follow it for the lengths to fill.
  cdsnap::write_le<std::uint32_t>(chopped, cdsnap::kSectionCountAt, 1);
  cdsnap::reseal_head(chopped);
  EXPECT_FALSE(io::decode_snapshot(chopped, ParsePolicy::kStrict).has_value());
}

TEST(SnapshotSectionsTest, FlippedSectionTableByteRejects) {
  const io::SnapshotData data = make_snapshot_data(4, ParsePolicy::kStrict);
  const std::string bytes = snapshot_bytes(data);
  // A flipped length or hash byte of the first entry fails the head hash;
  // resealed, it fails the check behind it: lengths that fill the file,
  // or the section's own hash.
  for (const std::size_t field : {std::size_t{0}, cdsnap::kEntryHashField}) {
    SCOPED_TRACE("entry field at " + std::to_string(field));
    std::string flipped = bytes;
    flipped[cdsnap::entry_at(0) + field] ^= 0x01;
    EXPECT_FALSE(io::decode_snapshot(flipped, ParsePolicy::kStrict).has_value());
    cdsnap::reseal_head(flipped);
    EXPECT_FALSE(io::decode_snapshot(flipped, ParsePolicy::kStrict).has_value());
  }
}

TEST(SnapshotSectionsTest, FlippedSectionBodyByteFailsThatSectionsCrc) {
  const io::SnapshotData data = make_snapshot_data(4, ParsePolicy::kStrict);
  std::string bytes = snapshot_bytes(data);
  // Last byte lives in the final (quality) section, well past the table —
  // only the per-section hash can notice it.
  bytes[bytes.size() - 1] ^= 0x40;
  EXPECT_FALSE(io::decode_snapshot(bytes, ParsePolicy::kStrict).has_value());
}

TEST(SnapshotSectionsTest, OverlappingOrGappedSectionsReject) {
  // Each section starts where the one before it ends, so a gap or an
  // overlap can only show as lengths that do not fill the file: one length
  // 8 short ends the sections before the file does, 8 long runs them past
  // it.  The head is resealed both times, so the head hash is not what
  // rejects them.
  const io::SnapshotData data = make_snapshot_data(4, ParsePolicy::kStrict);
  const std::string bytes = snapshot_bytes(data);
  const std::uint64_t first_length = cdsnap::section_length(bytes, 0);
  for (const std::uint64_t length : {first_length - 8, first_length + 8}) {
    SCOPED_TRACE("first length " + std::to_string(length));
    std::string edited = bytes;
    cdsnap::write_le(edited, cdsnap::entry_at(0), length);
    cdsnap::reseal_head(edited);
    EXPECT_FALSE(io::decode_snapshot(edited, ParsePolicy::kStrict).has_value());
  }
}

TEST(SnapshotSectionsTest, OversizedSectionCountRejects) {
  const io::SnapshotData data = make_snapshot_data(4, ParsePolicy::kStrict);
  std::string bytes = snapshot_bytes(data);
  // A section count whose table alone would exceed the file must be
  // rejected by the bounds check, not trusted as an allocation size.
  cdsnap::write_le<std::uint32_t>(bytes, cdsnap::kSectionCountAt, 0x00FFFFFFu);
  EXPECT_FALSE(io::decode_snapshot(bytes, ParsePolicy::kStrict).has_value());
}

TEST(SnapshotSectionsTest, EveryHeadAndTableByteFlipRejects) {
  // Each byte of the header and the table is under a check: magic, version
  // and policy are compared, the head hash covers the rest of the header
  // and the table, and flipping the hash itself breaks the comparison.  A
  // flip of any one of them makes the open reject with one
  // `snapshot.rejected`, and the decode reject the same bytes.
  const ScopedTempDir dir("cdsnap_head_flips");
  const std::string path = dir.path() + "/snapshot.cdsnap";
  const std::string good = snapshot_bytes(make_snapshot_data(4, ParsePolicy::kStrict));
  io::write_file(path, good);
  ASSERT_TRUE(io::open_snapshot(path, ParsePolicy::kStrict).has_value());
  const std::size_t head = cdsnap::head_bytes(good);
  ASSERT_EQ(head, cdsnap::kHeaderBytes + 2 * cdsnap::kEntryBytes);
  for (std::size_t at = 0; at < head; ++at) {
    SCOPED_TRACE("byte " + std::to_string(at));
    std::string flipped = good;
    flipped[at] = static_cast<char>(~flipped[at]);
    io::write_file(path, flipped);
    obs::Metrics metrics;
    EXPECT_FALSE(io::open_snapshot(path, ParsePolicy::kStrict, &metrics).has_value());
    EXPECT_EQ(counter(metrics, "snapshot.rejected"), 1u);
    EXPECT_FALSE(io::decode_snapshot(flipped, ParsePolicy::kStrict).has_value());
  }
}

TEST(SnapshotFormat, BytesArePinned) {
  // The encoding, pinned: a change to any byte a snapshot holds must bump
  // kSnapshotFormatVersion (so older files reject and reparse) and this
  // digest together.
  const io::SnapshotData data = make_snapshot_data(4, ParsePolicy::kStrict);
  const std::string bytes = snapshot_bytes(data);
  EXPECT_EQ(io::kSnapshotFormatVersion, 11u);
  EXPECT_EQ(io::xxh64(bytes), 0x115526642A7F72E3ULL)
      << std::hex << io::xxh64(bytes);
}

// ---- counters and the background save ---------------------------------------

TEST(SnapshotCounters, SaveBytesAndLoadRecordsArePinned) {
  const ScopedTempDir dir("cdsnap_counters");
  const std::string path = dir.path() + "/snapshot.cdsnap";
  const io::SnapshotData data = make_snapshot_data(8, ParsePolicy::kStrict);

  obs::Metrics metrics;
  ASSERT_TRUE(io::save_snapshot(path, data, &metrics, 2));
  EXPECT_EQ(counter(metrics, "snapshot.written"), 1u);
  EXPECT_EQ(counter(metrics, "snapshot.save_bytes"),
            std::filesystem::file_size(path));

  const std::optional<io::SnapshotData> loaded =
      load_file(path, ParsePolicy::kStrict, &metrics, 2);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(counter(metrics, "snapshot.load_records"),
            data.catalog.record_count());
  const obs::MetricsReport report = metrics.snapshot();
  const auto sections = report.scheduling.find("snapshot.load_sections");
  ASSERT_NE(sections, report.scheduling.end());
  // Small corpus = one catalog stripe, then the quality section.
  EXPECT_EQ(sections->second, 2u);
}

// ---- the streaming writer ---------------------------------------------------

/// `satellites` satellites of 16,384 records each, built without text: the
/// writer cuts a stripe whenever the running record count reaches 16,384,
/// so each satellite is one catalog stripe.
io::SnapshotData stripe_per_satellite_data(int satellites) {
  constexpr int kRecords = 16384;
  std::vector<std::vector<tle::Tle>> histories(static_cast<std::size_t>(satellites));
  for (int s = 0; s < satellites; ++s) {
    std::vector<tle::Tle>& history = histories[static_cast<std::size_t>(s)];
    history.reserve(kRecords);
    for (int k = 0; k < kRecords; ++k) {
      history.push_back(make_tle(10001 + s, 0.01 * k));
    }
  }
  tle::TleCatalog catalog;
  catalog.adopt_histories(std::move(histories));
  return io::SnapshotData{{}, std::move(catalog), {}, {}};
}

/// The section lengths a snapshot's table records, in table order.
std::vector<std::uint64_t> section_lengths(std::string_view bytes) {
  std::vector<std::uint64_t> lengths(cdsnap::section_count(bytes));
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    lengths[i] = cdsnap::section_length(bytes, i);
  }
  return lengths;
}

/// The gauge's value, or -1 when it was never set.
double gauge(const obs::Metrics& metrics, const std::string& name) {
  const obs::MetricsReport report = metrics.snapshot();
  const auto it = report.gauges.find(name);
  return it != report.gauges.end() ? it->second : -1.0;
}

TEST(SnapshotSave, HoldsOneWaveOfSectionsAtATime) {
  // 40 satellites, so 41 sections: several waves at 1, 2 and 8 threads.
  // Each save holds at most one wave of encoded sections, well under the
  // file, and writes the bytes a save that fits every section in one wave
  // writes.
  const ScopedTempDir dir("cdsnap_waves");
  const io::SnapshotData data = stripe_per_satellite_data(40);

  obs::Metrics whole_metrics;
  const std::string whole_path = dir.path() + "/one_wave.cdsnap";
  // At 42 threads one wave (84 sections) holds the whole file.
  ASSERT_TRUE(io::save_snapshot(whole_path, data, &whole_metrics, 42));
  const io::MappedFile whole(whole_path);
  const std::vector<std::uint64_t> lengths = section_lengths(whole.view());
  ASSERT_EQ(lengths.size(), 41u);
  std::uint64_t section_bytes = 0;
  for (const std::uint64_t length : lengths) section_bytes += length;
  EXPECT_EQ(gauge(whole_metrics, "snapshot.save_peak_buffer_bytes"),
            static_cast<double>(section_bytes));

  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const std::size_t wave =
        io::kSaveWaveSectionsPerWorker * static_cast<std::size_t>(threads);
    ASSERT_GE(lengths.size(), 2 * wave + 1) << "fewer than three waves";
    std::uint64_t largest_wave = 0;
    for (std::size_t first = 0; first < lengths.size(); first += wave) {
      std::uint64_t held = 0;
      for (std::size_t i = first; i < std::min(first + wave, lengths.size()); ++i) {
        held += lengths[i];
      }
      largest_wave = std::max(largest_wave, held);
    }

    obs::Metrics metrics;
    const std::string path = dir.path() + "/waves.cdsnap";
    ASSERT_TRUE(io::save_snapshot(path, data, &metrics, threads));
    const double peak = gauge(metrics, "snapshot.save_peak_buffer_bytes");
    EXPECT_EQ(peak, static_cast<double>(largest_wave));
    EXPECT_LT(peak, static_cast<double>(whole.size()) / 2);
    const io::MappedFile streamed(path);
    EXPECT_TRUE(streamed.view() == whole.view()) << "bytes differ";
  }
}

TEST(SnapshotSave, FailedRenameLeavesNoTempFileAndTheTargetUntouched) {
  // The target path is a non-empty directory: the whole stream goes to the
  // temp file, then the rename fails.  The save reports it, and leaves
  // neither a temp file nor a changed directory behind.
  const ScopedTempDir dir("cdsnap_failed_rename");
  const std::string target = dir.path() + "/cache/snapshot.cdsnap";
  std::filesystem::create_directories(target);
  io::write_file(target + "/kept.txt", "kept");
  const io::SnapshotData data = make_snapshot_data(9000, ParsePolicy::kStrict);

  obs::Metrics metrics;
  EXPECT_FALSE(io::save_snapshot(target, data, &metrics, 2));
  EXPECT_EQ(counter(metrics, "snapshot.write_failed"), 1u);
  EXPECT_EQ(counter(metrics, "snapshot.written"), 0u);
  for (const auto& entry :
       std::filesystem::directory_iterator(dir.path() + "/cache")) {
    EXPECT_EQ(entry.path().filename().string().find(".tmp."), std::string::npos)
        << "stray temp file: " << entry.path();
  }
  ASSERT_TRUE(std::filesystem::is_directory(target));
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(target)) {
    names.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(names, std::vector<std::string>{"kept.txt"});
  EXPECT_EQ(io::read_file(target + "/kept.txt"), "kept");
}

/// The names in `dir`, sorted.
std::vector<std::string> names_in(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

TEST(SnapshotSave, AFirstSaveAndASaveOverTheBaseLeaveOnlyTheTarget) {
  // The first save finds no base and renames its temp file into place; the
  // next swaps names with the base and unlinks it.  Either way the
  // directory holds the target alone, with the bytes of the last save, and
  // a load sees the last save's state.  Both time the step in
  // snapshot.replace, inside snapshot.save.
  const ScopedTempDir dir("cdsnap_replace");
  const std::string target = dir.path() + "/cache/snapshot.cdsnap";
  const io::SnapshotData first = make_snapshot_data(3000, ParsePolicy::kStrict);
  const io::SnapshotData second = make_snapshot_data(9000, ParsePolicy::kStrict);
  ASSERT_NE(first.state.tle_hash, second.state.tle_hash);
  for (const io::SnapshotData* data : {&first, &second, &first}) {
    obs::Metrics metrics;
    ASSERT_TRUE(io::save_snapshot(target, *data, &metrics, 2));
    EXPECT_EQ(counter(metrics, "snapshot.written"), 1u);
    EXPECT_EQ(counter(metrics, "snapshot.write_failed"), 0u);
    const obs::MetricsReport report = metrics.snapshot();
    ASSERT_EQ(report.phases.count("snapshot.replace"), 1u);
    EXPECT_EQ(report.phases.at("snapshot.replace").calls, 1u);
    EXPECT_LE(report.phases.at("snapshot.replace").total_ms,
              report.phases.at("snapshot.save").total_ms);
    EXPECT_EQ(names_in(dir.path() + "/cache"),
              std::vector<std::string>{"snapshot.cdsnap"});
    EXPECT_EQ(io::read_file(target), snapshot_bytes(*data));
    const std::optional<io::SnapshotData> loaded =
        load_file(target, ParsePolicy::kStrict);
    ASSERT_TRUE(loaded.has_value());
    expect_same_decoded(*loaded, *data);
  }
}

TEST(SnapshotLoad, TheStateReadChecksTheHeadAndTheLoadTheRest) {
  // from_files opens a snapshot and reads its recorded state, fingerprints
  // its input, and only then decodes the sections of the same mapping,
  // even when the file at the path has been replaced since.  The open
  // checks the head, which holds the state: a bad state byte gives no
  // state and one rejection.  A bad section passes the open, and the load
  // after it rejects the file: one rejection in all.
  const ScopedTempDir dir("cdsnap_state_read");
  const std::string path = dir.path() + "/snapshot.cdsnap";
  // Several catalog stripes, so the load decodes over the pool.
  const io::SnapshotData data = make_snapshot_data(9000, ParsePolicy::kStrict);
  ASSERT_TRUE(io::save_snapshot(path, data));
  const std::string good = io::read_file(path);
  std::string bad_state = good;
  bad_state[cdsnap::kTleHashAt] ^= 0x01;
  std::string bad_quality = good;
  bad_quality.back() ^= 0x40;  // inside the last (quality) section

  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    io::write_file(path, good);
    obs::Metrics good_run;
    const std::optional<io::SnapshotFile> good_file =
        io::open_snapshot(path, ParsePolicy::kStrict, &good_run);
    ASSERT_TRUE(good_file.has_value());
    EXPECT_EQ(good_file->state, data.state);
    // Another writer's snapshot saved over the path after the open is not
    // what the load decodes: the mapping holds the file whose state was
    // read.
    ASSERT_TRUE(io::save_snapshot(path, make_snapshot_data(3, ParsePolicy::kStrict)));
    const std::optional<io::SnapshotData> loaded =
        io::load_snapshot(*good_file, &good_run, threads);
    ASSERT_TRUE(loaded.has_value());
    expect_same_decoded(*loaded, data);
    EXPECT_EQ(counter(good_run, "snapshot.rejected"), 0u);

    io::write_file(path, bad_state);
    obs::Metrics bad_state_run;
    EXPECT_FALSE(
        io::open_snapshot(path, ParsePolicy::kStrict, &bad_state_run).has_value());
    EXPECT_EQ(counter(bad_state_run, "snapshot.rejected"), 1u);

    io::write_file(path, bad_quality);
    obs::Metrics bad_quality_run;
    const std::optional<io::SnapshotFile> kept =
        io::open_snapshot(path, ParsePolicy::kStrict, &bad_quality_run);
    ASSERT_TRUE(kept.has_value());
    EXPECT_EQ(kept->state, data.state);
    EXPECT_EQ(counter(bad_quality_run, "snapshot.rejected"), 0u);
    EXPECT_FALSE(io::load_snapshot(*kept, &bad_quality_run, threads).has_value());
    EXPECT_EQ(counter(bad_quality_run, "snapshot.rejected"), 1u);
  }

  // No file is a plain miss, not a rejection.
  obs::Metrics missing;
  EXPECT_FALSE(io::open_snapshot(dir.path() + "/absent.cdsnap",
                                 ParsePolicy::kStrict, &missing)
                   .has_value());
  EXPECT_EQ(counter(missing, "snapshot.rejected"), 0u);
}

TEST(SnapshotTest, ExactInputsWithABadLaterSectionStillReparse) {
  // The state read passes and the fingerprint finds the input unchanged,
  // then the load finds the last section failing its hash: from_files,
  // which unmaps the input only after an exact hit's load succeeds, must
  // reparse the mapping it still holds, bit-identically.
  const TestInputs inputs = write_inputs("exact_then_bad", tle_corpus(4));
  expect_reject_and_fallback(inputs, ParsePolicy::kStrict,
                             [](const TestInputs& t) {
                               std::string bytes = io::read_file(t.snapshot_path());
                               bytes.back() ^= 0x40;
                               io::write_file(t.snapshot_path(), bytes);
                             });
}

TEST(SnapshotPipeline, BackgroundSaveCompletesOnWait) {
  const TestInputs inputs = write_inputs("bg_save", tle_corpus(6));
  core::PipelineConfig config;
  config.cache_dir = inputs.cache_dir;
  core::CosmicDance pipeline =
      core::CosmicDance::from_files(inputs.dst_path, inputs.tle_path, config);
  pipeline.wait_for_snapshot_save();
  EXPECT_TRUE(std::filesystem::exists(inputs.snapshot_path()))
      << "wait_for_snapshot_save returned before the cache was written";
  // The pending-save future must survive a move and a second wait must be
  // a no-op — both on the moved-to object and the moved-from shell.
  core::CosmicDance moved = std::move(pipeline);
  moved.wait_for_snapshot_save();
  const std::optional<io::SnapshotData> loaded =
      load_file(inputs.snapshot_path(), ParsePolicy::kStrict);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->catalog.to_text(), moved.catalog().to_text());
}

/// Forty days of quiet Dst with one severe storm on day 10, and six
/// satellites sampled twice a day whose orbits sink for a week after it:
/// enough for every correlator analysis to return samples.
TestInputs write_storm_inputs(const std::string& tag) {
  std::vector<double> values;
  for (int h = 0; h < 40 * 24; ++h) {
    values.push_back(h >= 240 && h < 252 ? -150.0 : -12.0);
  }
  std::string tle_text;
  for (int i = 0; i < 6; ++i) {
    for (int k = 0; k < 80; ++k) {
      tle::Tle record = make_tle(10001 + i, 0.5 * k);
      const int sinking = std::clamp(k - 20, 0, 14);
      record.mean_motion_revday += 0.0004 * (i + 1) * sinking;
      record.bstar *= 1.0 + 0.1 * sinking;
      const tle::TleLines lines = tle::format_tle(record);
      tle_text += lines.line1 + "\n" + lines.line2 + "\n";
    }
  }
  TestInputs inputs = write_inputs(tag, tle_text);
  io::write_file(inputs.dst_path,
                 spaceweather::to_wdc(spaceweather::DstIndex(
                     timeutil::make_datetime(2024, 5, 1), std::move(values))));
  return inputs;
}

/// The bits of each value, so NaN cells (days without a sample) compare
/// equal to NaN cells.
std::vector<std::uint64_t> bits_of(const std::vector<double>& values) {
  std::vector<std::uint64_t> bits;
  bits.reserve(values.size());
  for (const double value : values) {
    bits.push_back(std::bit_cast<std::uint64_t>(value));
  }
  return bits;
}

/// Every correlator-backed answer must match the reference pipeline's.
void expect_same_answers(const core::CosmicDance& got,
                         const core::CosmicDance& want) {
  EXPECT_EQ(got.altitude_changes_for_storms(-100.0),
            want.altitude_changes_for_storms(-100.0));
  EXPECT_EQ(got.drag_changes_for_storms(-100.0),
            want.drag_changes_for_storms(-100.0));
  const double event_jd = want.correlator().storm_event_epochs(-100.0).front();
  const core::PostEventEnvelope got_envelope =
      got.post_event_envelope(event_jd, 15, core::EnvelopeSelection::kAll);
  const core::PostEventEnvelope want_envelope =
      want.post_event_envelope(event_jd, 15, core::EnvelopeSelection::kAll);
  EXPECT_EQ(got_envelope.event_jd, want_envelope.event_jd);
  EXPECT_EQ(got_envelope.days, want_envelope.days);
  EXPECT_EQ(got_envelope.satellites, want_envelope.satellites);
  ASSERT_EQ(got_envelope.per_satellite.size(),
            want_envelope.per_satellite.size());
  for (std::size_t s = 0; s < want_envelope.per_satellite.size(); ++s) {
    EXPECT_EQ(bits_of(got_envelope.per_satellite[s]),
              bits_of(want_envelope.per_satellite[s]))
        << "satellite row " << s;
  }
  EXPECT_EQ(bits_of(got_envelope.median_km), bits_of(want_envelope.median_km));
  EXPECT_EQ(bits_of(got_envelope.p95_km), bits_of(want_envelope.p95_km));
  EXPECT_EQ(core::storms_csv(got.storms()), core::storms_csv(want.storms()));
}

TEST(SnapshotPipeline, MovesWhileTheSaveRunsKeepEveryAnswer) {
  // The background save shares the parsed inputs with the pipeline, and
  // the correlator points at their Dst series.  A move-construct and a
  // move-assign made while the save may still be running must leave a
  // pipeline that answers exactly like an uncached one, and the save must
  // still write the same catalog.
  const TestInputs inputs = write_storm_inputs("moved_save");
  const core::CosmicDance reference =
      core::CosmicDance::from_files(inputs.dst_path, inputs.tle_path);
  ASSERT_FALSE(reference.altitude_changes_for_storms(-100.0).empty());
  ASSERT_FALSE(reference.drag_changes_for_storms(-100.0).empty());

  core::CosmicDance assigned =
      core::CosmicDance::from_files(inputs.dst_path, inputs.tle_path);
  core::PipelineConfig config;
  config.cache_dir = inputs.cache_dir;
  core::CosmicDance cold =
      core::CosmicDance::from_files(inputs.dst_path, inputs.tle_path, config);
  core::CosmicDance moved(std::move(cold));
  expect_same_answers(moved, reference);
  assigned = std::move(moved);
  expect_same_answers(assigned, reference);

  assigned.wait_for_snapshot_save();
  const std::optional<io::SnapshotData> loaded =
      load_file(inputs.snapshot_path(), ParsePolicy::kStrict);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->catalog.to_text(), reference.catalog().to_text());
}

// ---- input fingerprint ------------------------------------------------------

TEST(SnapshotHash, Xxh64KnownAnswers) {
  // Reference XXH64 (seed 0) digests.  The low 32 bits of each are the
  // frame checksum `zstd --check` writes for the same bytes.
  EXPECT_EQ(io::xxh64(""), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(io::xxh64("a"), 0xD24EC4F1A98C6E5BULL);
  EXPECT_EQ(io::xxh64("abc"), 0x44BC2CF5AD770999ULL);
  std::string hundred;
  for (int i = 0; i < 10; ++i) hundred += "0123456789";
  EXPECT_EQ(io::xxh64(hundred), 0xF80E7B96315AFFFAULL);
  // The empty input's fingerprint, no windows and then the length 0, is
  // the empty state's hash.
  EXPECT_EQ(io::kEmptyInputHash, 0x34C96ACDCADB1BBBULL);
  EXPECT_EQ(state_of("").tle_hash, io::kEmptyInputHash);
  EXPECT_EQ(reference_fingerprint(""), io::kEmptyInputHash);
  const io::IngestState empty;
  EXPECT_EQ(empty.tle_hash, io::kEmptyInputHash);
}

TEST(SnapshotHash, PlainDigestEqualsTheFingerprintsAtEveryLength) {
  // A cold input's windows take the plain XXH64 loop; the recorded prefix
  // of an input that grew takes the loop with the newline count fused in.
  // Both must give the reference's digests: the cold fingerprint equals
  // the reference, and a prefix recorded with the reference is recognised
  // in the input one byte longer (its newlines come back).  Every stripe
  // remainder and tail length up to 257 bytes, then lengths on either side
  // of one and two window edges.
  const auto check = [](std::string_view bytes, std::size_t n) {
    const std::string_view prefix = bytes.substr(0, n);
    const std::uint64_t reference = reference_fingerprint(prefix);
    EXPECT_EQ(state_of(prefix).tle_hash, reference) << "length " << n;
    const io::InputClassification grown = io::classify_inputs(
        io::IngestState{n, reference}, bytes.substr(0, n + 1));
    EXPECT_EQ(grown.prefix_lines,
              static_cast<std::uint64_t>(std::count(prefix.begin(), prefix.end(), '\n')))
        << "length " << n;
  };
  // Both inputs start with a newline, so a prefix the fused loop misread
  // would come back with none.
  Rng rng(24);
  std::string bytes;
  for (std::size_t n = 0; n <= 258; ++n) {
    bytes.push_back(n % 7 == 0 ? '\n' : static_cast<char>(rng.uniform_int(0, 255)));
  }
  for (std::size_t n = 0; n <= 257; ++n) check(bytes, n);
  std::string big(3 * kWindow + 1, '\n');
  for (std::size_t i = 1; i < big.size(); ++i) {
    big[i] = static_cast<char>(rng.uniform_int(0, 255));
  }
  for (const std::size_t n : {kWindow - 1, kWindow, kWindow + 1,
                              2 * kWindow + 13, 3 * kWindow}) {
    check(big, n);
  }
}

TEST(SnapshotHash, SplitPointChangesNeitherHashNorLineCount) {
  // classify_inputs checks the recorded prefix from the windows it shares
  // with the input plus its own last partial window, and counts a grown
  // input's prefix newlines from the same windows: wherever the prefix
  // ends — inside a 32-byte stripe, on its edge, on either side of a
  // window edge, or one byte short of the end — and at any thread count,
  // the grown input's hash must equal a one-pass fingerprint of the whole,
  // and the prefix's line count its own.
  std::string text;
  Rng rng(20261017);
  while (text.size() < 2 * kWindow + 300) {
    text.push_back(rng.uniform_int(0, 4) == 0
                       ? '\n'
                       : static_cast<char>(rng.uniform_int(0, 255)));
  }
  const io::IngestState whole = state_of(text);
  EXPECT_EQ(whole.tle_hash, reference_fingerprint(text));
  for (const int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    // An exact match reads no line count: nothing follows its prefix.
    const io::InputClassification same = io::classify_inputs(whole, text, threads);
    EXPECT_EQ(same.match, io::InputMatch::kExact);
    EXPECT_EQ(same.current.tle_hash, whole.tle_hash);
    EXPECT_EQ(same.prefix_lines, 0u);
    for (const std::size_t split :
         {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{31},
          std::size_t{32}, std::size_t{33}, kWindow - 1, kWindow, kWindow + 1,
          2 * kWindow + 1, text.size() - 1}) {
      SCOPED_TRACE("split " + std::to_string(split));
      const std::string_view head = std::string_view(text).substr(0, split);
      const io::IngestState prefix = state_of(head);
      const io::InputClassification grown =
          io::classify_inputs(prefix, text, threads);
      EXPECT_EQ(grown.current.tle_hash, whole.tle_hash);
      EXPECT_EQ(grown.current.tle_len, text.size());
      EXPECT_EQ(grown.prefix_lines,
                static_cast<std::uint64_t>(
                    std::count(head.begin(), head.end(), '\n')));
    }
  }
}

TEST(SnapshotHash, MappedPassMatchesTheViewsAndDropsWhatItHashed) {
  // Over mapped inputs, classify_inputs hashes its windows over the pool
  // and drops each window's pages once hashed.  It must classify exactly
  // as the pass over plain views does, at 1 and 4 threads, leave every
  // byte readable, and end with only a sliver of the file resident where
  // the view pass leaves all of it.
  const ScopedTempDir dir("cdsnap_mapped_pass");
  const std::string tle_path = dir.path() + "/tle.txt";
  std::string text;  // 24 MiB of lines: six windows and a partial seventh
  for (std::size_t i = 0; text.size() < 6 * kWindow + 12345; ++i) {
    text += std::to_string(i * 2654435761u) + " 0123456789abcdefghijklmnop\n";
  }
  io::write_file(tle_path, text);
  const io::MappedFile tle_map(tle_path);
  if (!tle_map.is_mapped()) GTEST_SKIP() << "no mmap on this platform";

  // The prefix ends inside a window, so its last partial window is hashed
  // on its own.
  const std::size_t half = text.rfind('\n', text.size() / 2) + 1;
  ASSERT_NE(half % kWindow, 0u);
  const io::IngestState prefix =
      state_of(std::string_view(text).substr(0, half));
  const io::IngestState whole = state_of(text);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    for (const io::IngestState& base : {io::IngestState{}, prefix, whole}) {
      const io::InputClassification viewed =
          io::classify_inputs(base, text, threads);
      const io::InputClassification mapped =
          io::classify_inputs(base, tle_map, threads);
      EXPECT_EQ(mapped.match, viewed.match);
      EXPECT_EQ(mapped.current.tle_hash, viewed.current.tle_hash);
      EXPECT_EQ(mapped.current.tle_len, viewed.current.tle_len);
      EXPECT_EQ(mapped.prefix_lines, viewed.prefix_lines);
    }
    EXPECT_EQ(io::classify_inputs(prefix, tle_map, threads).match,
              io::InputMatch::kAppend);
    EXPECT_EQ(io::classify_inputs(whole, tle_map, threads).match,
              io::InputMatch::kExact);

    const long after_mapped = resident_bytes(tle_map.view().data());
    ASSERT_GE(after_mapped, 0);
    EXPECT_LE(after_mapped, 1L << 20);
  }
  // The same bytes through a pass over the plain view stay resident, so
  // the bound above measures the drops, not an idle mapping.
  const io::MappedFile held(tle_path);
  EXPECT_EQ(state_of(held.view()).tle_hash, whole.tle_hash);
  EXPECT_GE(resident_bytes(held.view().data()),
            static_cast<long>(text.size() / 2));
  // Dropped pages fault back in with the file's bytes.
  EXPECT_EQ(tle_map.view(), text);
}

TEST(SnapshotLoad, MappedDecodeDropsEachSectionItDecoded) {
  // The load decodes from the snapshot's mapping and drops each section's
  // pages once it is decoded.  It must decode exactly what the pass over
  // the plain view does, at any thread count, and end with only a sliver
  // of the file resident where the view pass leaves most of it.
  const ScopedTempDir dir("cdsnap_mapped_decode");
  const std::string path = dir.path() + "/snapshot.cdsnap";
  const io::SnapshotData data = stripe_per_satellite_data(12);  // 20 MiB
  ASSERT_TRUE(io::save_snapshot(path, data));

  const io::MappedFile held(path);
  if (!held.is_mapped()) GTEST_SKIP() << "no mmap on this platform";
  const std::optional<io::SnapshotData> viewed =
      io::decode_snapshot(held.view(), ParsePolicy::kStrict);
  ASSERT_TRUE(viewed.has_value());
  EXPECT_EQ(viewed->catalog.record_count(), data.catalog.record_count());
  EXPECT_GE(resident_bytes(held.view().data()),
            static_cast<long>(held.size() / 2));

  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const std::optional<io::SnapshotFile> file =
        io::open_snapshot(path, ParsePolicy::kStrict);
    ASSERT_TRUE(file.has_value());
    const std::optional<io::SnapshotData> decoded =
        io::load_snapshot(*file, nullptr, threads);
    ASSERT_TRUE(decoded.has_value());
    expect_same_decoded(*decoded, *viewed);
    const long resident = resident_bytes(file->mapping.view().data());
    ASSERT_GE(resident, 0);
    EXPECT_LE(resident, 1L << 20);
  }
}

}  // namespace
}  // namespace cosmicdance
