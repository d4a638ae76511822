// Differential suite for append-aware incremental ingestion (DESIGN.md §14).
//
// The append contract extends the snapshot cache contract from
// "bit-identical or rebuilt" to "bit-identical, incrementally extended, or
// rebuilt": when the TLE input grows by appended records over an unchanged
// prefix, a warm run must parse only the tail (counters `ingest.delta_hit`
// and `ingest.tail_bytes`), rewrite the snapshot as one base over the grown
// input, and still produce output bit-identical to a from-scratch rebuild
// — same Dst values, catalog text, quarantine counters and order, and
// first error — at any thread count under either parse policy.  Every run
// parses the Dst file itself, so a Dst-only change keeps the TLE snapshot
// an exact hit.  Every way the fast path could be fooled is driven here:
// prefix edits masquerading as appends, unterminated prefixes, dangling
// pairing state at the boundary, and a randomized append/edit fuzz loop.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "diag/diag.hpp"
#include "io/file.hpp"
#include "io/snapshot.hpp"
#include "obs/obs.hpp"
#include "spaceweather/dst_index.hpp"
#include "spaceweather/wdc.hpp"
#include "support/make_tle.hpp"
#include "support/temp_dir.hpp"
#include "timeutil/datetime.hpp"
#include "tle/catalog.hpp"
#include "tle/tle.hpp"

namespace cosmicdance {
namespace {

using diag::ParsePolicy;
using test_support::make_tle;

// ---- corpus builders --------------------------------------------------------

std::string tle_record_text(int catalog_number, double epoch_offset_days) {
  const tle::TleLines lines =
      tle::format_tle(make_tle(catalog_number, epoch_offset_days));
  return lines.line1 + "\n" + lines.line2 + "\n";
}

/// One WDC day record (25 lines would be 25 days): 24 integral hourly
/// values derived deterministically from the day's hour index.
std::string wdc_day_text(timeutil::HourIndex day_start) {
  std::vector<double> values;
  values.reserve(24);
  for (int h = 0; h < 24; ++h) {
    values.push_back(-10.0 - static_cast<double>((day_start + h) % 300));
  }
  return spaceweather::to_wdc(
      spaceweather::DstIndex(day_start, std::move(values)));
}

// ---- harness ----------------------------------------------------------------

/// A growable input pair with its own cache dir.  The append helpers keep
/// enough generator state (next day, next epoch offset) that successive
/// appends always extend — never duplicate — the existing corpus.
struct Fixture {
  test_support::ScopedTempDir dir;
  std::string dst_path;
  std::string tle_path;
  std::string cache_dir;
  timeutil::HourIndex next_day = 0;
  double next_epoch_offset = 50.0;

  [[nodiscard]] std::string snapshot_path() const {
    return io::snapshot_cache_path(cache_dir, tle_path);
  }

  void append_tle_records(int count) {
    std::string text;
    for (int i = 0; i < count; ++i) {
      text += tle_record_text(10001 + (i % 4), next_epoch_offset);
      next_epoch_offset += 0.125;
    }
    io::append_file(tle_path, text);
  }

  /// Append one record whose line-1 checksum digit is wrong: a tolerant
  /// parse quarantines it, a strict parse throws on it.
  void append_corrupt_tle_record() {
    std::string text = tle_record_text(10001, next_epoch_offset);
    next_epoch_offset += 0.125;
    text[68] = text[68] == '0' ? '1' : '0';  // line 1 checksum column
    io::append_file(tle_path, text);
  }

  /// Append a lone TLE line 2: a structural reject in both paths.
  void append_orphan_line2() {
    const std::string record = tle_record_text(10001, next_epoch_offset);
    next_epoch_offset += 0.125;
    io::append_file(tle_path, record.substr(record.find("\n2 ") + 1));
  }

  void append_wdc_days(int count) {
    std::string text;
    for (int i = 0; i < count; ++i) {
      text += wdc_day_text(next_day);
      next_day += 24;
    }
    io::append_file(dst_path, text);
  }

  /// Leave a one-day hole before the next appended day: tolerant runs
  /// interpolate 24 hours across it (strict runs throw).
  void skip_wdc_day() { next_day += 24; }

  /// Append a malformed record in place of the next day: a tolerant parse
  /// quarantines it and interpolates across the hole, a strict parse
  /// throws on it.
  void append_corrupt_wdc_day() {
    io::append_file(dst_path, "DST\n");
    next_day += 24;
  }
};

Fixture make_fixture(const std::string& tag, int tle_records, int wdc_days) {
  test_support::ScopedTempDir dir("cddelta_" + tag);
  const std::string root = dir.path();
  Fixture f{std::move(dir), root + "/dst.wdc", root + "/catalog.tle",
            root + "/cache"};
  f.next_day = timeutil::hour_index_from_datetime(timeutil::make_datetime(2024, 5, 1));
  io::write_file(f.dst_path, "");
  io::write_file(f.tle_path, "");
  f.append_wdc_days(wdc_days);
  std::string tle_text;
  for (int i = 0; i < tle_records; ++i) {
    tle_text += tle_record_text(10001 + (i % 4), 2.0 * i);
  }
  io::append_file(f.tle_path, tle_text);
  return f;
}

/// Everything the ingestion layer feeds downstream, in comparable form —
/// equality is bit-exactness (see snapshot_test.cpp).
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

RunOutput run_pipeline(const Fixture& f, ParsePolicy policy, int threads,
                       bool use_cache, obs::Metrics* metrics = nullptr) {
  core::PipelineConfig config;
  config.parse_policy = policy;
  config.num_threads = threads;
  config.metrics = metrics;
  if (use_cache) config.cache_dir = f.cache_dir;
  const core::CosmicDance pipeline =
      core::CosmicDance::from_files(f.dst_path, f.tle_path, config);
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

/// The stages of a quality report's quarantined records, in order.
std::vector<std::string> quarantine_stages(const std::string& quality_json) {
  const std::string key = "{\"stage\": \"";
  std::vector<std::string> stages;
  for (std::size_t pos = quality_json.find(key); pos != std::string::npos;
       pos = quality_json.find(key, pos + 1)) {
    const std::size_t begin = pos + key.size();
    stages.push_back(
        quality_json.substr(begin, quality_json.find('"', begin) - begin));
  }
  return stages;
}

// ---- the delta fast path ----------------------------------------------------

TEST(DeltaSnapshotTest, AppendTakesTheDeltaPathBitIdenticallyEverywhere) {
  // The acceptance-criteria matrix: both parse policies at threads 1/4/8,
  // with both inputs growing.  Every cell must parse only the TLE tail,
  // and the whole Dst file, and match a from-scratch rebuild exactly.
  for (const ParsePolicy policy : {ParsePolicy::kStrict, ParsePolicy::kTolerant}) {
    for (const int threads : {1, 4, 8}) {
      Fixture f = make_fixture(
          std::string("matrix_") +
              (policy == ParsePolicy::kStrict ? "s" : "t") +
              std::to_string(threads),
          8, 5);
      obs::Metrics cold;
      run_pipeline(f, policy, threads, /*use_cache=*/true, &cold);
      EXPECT_EQ(counter(cold, "snapshot.written"), 1u);

      const std::size_t tle_before = std::filesystem::file_size(f.tle_path);
      f.append_tle_records(3);
      f.append_wdc_days(2);
      const std::size_t appended =
          std::filesystem::file_size(f.tle_path) - tle_before;

      obs::Metrics warm;
      const RunOutput incremental =
          run_pipeline(f, policy, threads, /*use_cache=*/true, &warm);
      EXPECT_EQ(counter(warm, "ingest.delta_hit"), 1u);
      EXPECT_EQ(counter(warm, "ingest.tail_bytes"), appended);
      EXPECT_EQ(counter(warm, "ingest.cache_hit"), 0u);
      EXPECT_EQ(counter(warm, "snapshot.rejected"), 0u);
      EXPECT_EQ(counter(warm, "snapshot.loaded"), 1u);
      EXPECT_EQ(counter(warm, "snapshot.written"), 1u);
      EXPECT_EQ(counter(warm, "tle.records_parsed"), 3u)
          << "the delta path must parse only the appended records";
      EXPECT_EQ(counter(warm, "ingest.dst_hours"), 7u * 24u)
          << "every run parses the whole Dst series";

      const RunOutput rebuilt =
          run_pipeline(f, policy, threads, /*use_cache=*/false);
      expect_identical(incremental, rebuilt);

      // The next run over unchanged inputs is a plain exact hit on the
      // rewritten base.
      obs::Metrics exact;
      const RunOutput warm2 =
          run_pipeline(f, policy, threads, /*use_cache=*/true, &exact);
      EXPECT_EQ(counter(exact, "ingest.cache_hit"), 1u);
      EXPECT_EQ(counter(exact, "ingest.delta_hit"), 0u);
      expect_identical(warm2, rebuilt);
    }
  }
}

TEST(DeltaSnapshotTest, SingleFileGrowthAlsoTakesTheDeltaPath) {
  // Growing the TLE input alone takes the delta path; growing the Dst
  // input alone leaves the TLE snapshot an exact hit.
  Fixture f = make_fixture("one_file", 6, 4);
  run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/true);

  f.append_wdc_days(1);  // only the Dst input grows
  obs::Metrics dst_only;
  const RunOutput after_dst =
      run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/true, &dst_only);
  EXPECT_EQ(counter(dst_only, "ingest.cache_hit"), 1u);
  EXPECT_EQ(counter(dst_only, "ingest.delta_hit"), 0u);
  EXPECT_EQ(counter(dst_only, "tle.records_parsed"), 0u);
  expect_identical(after_dst,
                   run_pipeline(f, ParsePolicy::kTolerant, 1, false));

  f.append_tle_records(2);  // now only the TLE input grows
  obs::Metrics tle_only;
  const RunOutput after_tle =
      run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/true, &tle_only);
  EXPECT_EQ(counter(tle_only, "ingest.delta_hit"), 1u);
  EXPECT_EQ(counter(tle_only, "tle.records_parsed"), 2u);
  EXPECT_EQ(counter(tle_only, "ingest.dst_hours"), 5u * 24u);
  expect_identical(after_tle,
                   run_pipeline(f, ParsePolicy::kTolerant, 1, false));
}

TEST(DeltaSnapshotTest, DstOnlyChangesKeepTheTleSnapshot) {
  // Every run parses the Dst file, so neither a Dst append nor a Dst edit
  // in place touches the TLE snapshot: both runs are exact hits that parse
  // no TLE text and write nothing, with the outputs of an uncached run.
  Fixture f = make_fixture("dst_only", 6, 4);
  run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/true);

  const auto expect_exact_hit = [&](const std::string& change) {
    SCOPED_TRACE(change);
    obs::Metrics metrics;
    const RunOutput cached = run_pipeline(f, ParsePolicy::kTolerant, 1,
                                          /*use_cache=*/true, &metrics);
    EXPECT_EQ(counter(metrics, "ingest.cache_hit"), 1u);
    EXPECT_EQ(counter(metrics, "tle.records_parsed"), 0u);
    EXPECT_EQ(counter(metrics, "snapshot.written"), 0u);
    EXPECT_EQ(counter(metrics, "snapshot.rejected"), 0u);
    expect_identical(cached,
                     run_pipeline(f, ParsePolicy::kTolerant, 1, false));
  };

  f.append_wdc_days(1);
  expect_exact_hit("Dst append");

  std::string text = io::read_file(f.dst_path);
  const std::size_t first_value = 20;  // the first hour's 4-column cell
  ASSERT_NE(text.substr(first_value, 4), "-999");
  text.replace(first_value, 4, "-999");
  io::write_file(f.dst_path, text);
  expect_exact_hit("Dst edit in place");
}

TEST(DeltaSnapshotTest, QuarantineAndRepairExtendAcrossTheBoundary) {
  // Tail records that quarantine, a structural orphan, and a Dst gap whose
  // interpolation anchors on the *prefix's* last committed value: the
  // quality report — counters, line numbers, snippet order — must equal
  // the full rebuild's exactly.
  Fixture f = make_fixture("quarantine", 6, 4);
  run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/true);

  f.append_corrupt_tle_record();
  f.append_orphan_line2();
  f.append_tle_records(1);
  f.skip_wdc_day();  // interpolated across the snapshot boundary
  f.append_wdc_days(1);

  obs::Metrics warm;
  const RunOutput incremental =
      run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/true, &warm);
  EXPECT_EQ(counter(warm, "ingest.delta_hit"), 1u);
  const RunOutput rebuilt =
      run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/false);
  expect_identical(incremental, rebuilt);
  EXPECT_NE(incremental.quality_json.find("quarantined"), std::string::npos);

  // And the quarantine survives an exact hit on the rewritten base.
  const RunOutput warm2 =
      run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/true);
  expect_identical(warm2, rebuilt);
}

TEST(DeltaSnapshotTest, TolerantAppendKeepsTheFullParseQuarantineOrder) {
  // Quarantined records in both prefixes and both tails.  A full parse
  // lists every wdc record before every tle record; the append run, and
  // the exact hit on the base it rewrites, must list them in that order
  // too, not as prefix then tail.
  Fixture f = make_fixture("quarantine_order", 6, 4);
  f.append_corrupt_wdc_day();
  f.append_wdc_days(1);
  f.append_corrupt_tle_record();
  f.append_tle_records(1);
  run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/true);

  f.append_corrupt_wdc_day();
  f.append_wdc_days(1);
  f.append_corrupt_tle_record();
  f.append_tle_records(1);
  obs::Metrics append;
  const RunOutput incremental =
      run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/true, &append);
  EXPECT_EQ(counter(append, "ingest.delta_hit"), 1u);
  const RunOutput rebuilt =
      run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/false);
  ASSERT_EQ(quarantine_stages(rebuilt.quality_json),
            (std::vector<std::string>{"wdc", "wdc", "tle", "tle"}));
  expect_identical(incremental, rebuilt);

  obs::Metrics exact;
  const RunOutput warm =
      run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/true, &exact);
  EXPECT_EQ(counter(exact, "ingest.cache_hit"), 1u);
  expect_identical(warm, rebuilt);
}

TEST(DeltaSnapshotTest, StrictTailFailureThrowsIdenticallyToFullReparse) {
  // Strict policy, malformed record in the tail: the delta path must throw
  // the same first error — same message, same absolute line number — as a
  // full reparse of the grown file would.
  Fixture f = make_fixture("strict_throw", 6, 4);
  run_pipeline(f, ParsePolicy::kStrict, 1, /*use_cache=*/true);
  f.append_tle_records(1);
  f.append_corrupt_tle_record();

  std::string cached_error;
  std::string uncached_error;
  try {
    run_pipeline(f, ParsePolicy::kStrict, 1, /*use_cache=*/true);
  } catch (const ParseError& error) {
    cached_error = error.what();
  }
  try {
    run_pipeline(f, ParsePolicy::kStrict, 1, /*use_cache=*/false);
  } catch (const ParseError& error) {
    uncached_error = error.what();
  }
  EXPECT_FALSE(cached_error.empty());
  EXPECT_EQ(cached_error, uncached_error);
}

// ---- the daily loop: append, then rerun -------------------------------------

TEST(DeltaSnapshotTest, EveryAppendLeavesAWholeBaseTheRerunHits) {
  // The operational loop, six days of it: each append run must rewrite
  // exactly one base covering the grown inputs, and the rerun over
  // unchanged inputs must load it as an exact hit.
  Fixture f = make_fixture("daily", 4, 3);
  run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/true);

  for (int round = 1; round <= 6; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    f.append_tle_records(1);
    f.append_wdc_days(1);
    obs::Metrics append;
    const RunOutput incremental =
        run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/true, &append);
    EXPECT_EQ(counter(append, "ingest.delta_hit"), 1u);
    EXPECT_EQ(counter(append, "snapshot.written"), 1u);

    // One whole base: it decodes, records the grown inputs, and re-encodes
    // to exactly the bytes on disk.
    const std::string bytes = io::read_file(f.snapshot_path());
    const std::optional<io::SnapshotData> decoded =
        io::decode_snapshot(bytes, ParsePolicy::kTolerant);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->state.tle_len, std::filesystem::file_size(f.tle_path));
    std::ostringstream rewritten;
    io::write_snapshot(rewritten, *decoded);
    EXPECT_EQ(std::move(rewritten).str(), bytes);

    obs::Metrics rerun;
    const RunOutput warm =
        run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/true, &rerun);
    EXPECT_EQ(counter(rerun, "ingest.cache_hit"), 1u);
    EXPECT_EQ(counter(rerun, "snapshot.written"), 0u);

    const RunOutput rebuilt =
        run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/false);
    expect_identical(incremental, rebuilt);
    expect_identical(warm, rebuilt);
  }
}

// ---- failure matrix: stale bases and forged appends -------------------------

TEST(DeltaSnapshotTest, PrefixEditMasqueradingAsAppendReparses) {
  // The file grows AND a prefix byte changes: lengths alone say "append",
  // only the prefix hash catches the edit.
  Fixture f = make_fixture("masquerade", 6, 4);
  run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/true);

  std::string text = io::read_file(f.tle_path);
  const std::size_t designator = text.find("20001A");
  ASSERT_NE(designator, std::string::npos);
  text[designator + 5] = 'B';
  io::write_file(f.tle_path, text);
  f.append_tle_records(2);

  obs::Metrics warm;
  const RunOutput fallback =
      run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/true, &warm);
  EXPECT_EQ(counter(warm, "ingest.delta_hit"), 0u);
  EXPECT_EQ(counter(warm, "snapshot.rejected"), 1u);
  EXPECT_EQ(counter(warm, "snapshot.written"), 1u);
  expect_identical(fallback, run_pipeline(f, ParsePolicy::kTolerant, 1, false));
}

TEST(DeltaSnapshotTest, UnterminatedPrefixForcesFullReparse) {
  // The prefix's last line has no trailing newline, so appended bytes
  // could rewrite that line's meaning: growth must reparse from scratch.
  Fixture f = make_fixture("unterminated", 6, 4);
  std::string text = io::read_file(f.tle_path);
  ASSERT_EQ(text.back(), '\n');
  text.pop_back();
  io::write_file(f.tle_path, text);
  run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/true);

  io::append_file(f.tle_path, "\n");
  f.append_tle_records(1);
  obs::Metrics warm;
  const RunOutput fallback =
      run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/true, &warm);
  EXPECT_EQ(counter(warm, "ingest.delta_hit"), 0u);
  EXPECT_EQ(counter(warm, "snapshot.rejected"), 1u);
  expect_identical(fallback, run_pipeline(f, ParsePolicy::kTolerant, 1, false));
}

TEST(DeltaSnapshotTest, DanglingLine1BoundaryForcesFullReparse) {
  // The prefix ends with a lone TLE line 1 (quarantined as structural when
  // parsed alone).  Appending its line 2 would retroactively pair it, so
  // the classifier must refuse the delta path — the full reparse commits
  // the completed record, which the quarantined snapshot never could.
  Fixture f = make_fixture("dangling", 6, 4);
  const std::string record = tle_record_text(10001, 77.0);
  const std::string line1 = record.substr(0, record.find('\n') + 1);
  io::append_file(f.tle_path, line1);
  obs::Metrics cold;
  run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/true, &cold);
  EXPECT_EQ(counter(cold, "tle.structural_rejects"), 1u);

  io::append_file(f.tle_path, record.substr(record.find('\n') + 1));
  obs::Metrics warm;
  const RunOutput fallback =
      run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/true, &warm);
  EXPECT_EQ(counter(warm, "ingest.delta_hit"), 0u);
  EXPECT_EQ(counter(warm, "snapshot.rejected"), 1u);
  EXPECT_EQ(counter(warm, "tle.structural_rejects"), 0u)
      << "the full reparse pairs the completed record";
  expect_identical(fallback, run_pipeline(f, ParsePolicy::kTolerant, 1, false));
}

// ---- randomized append/edit fuzz --------------------------------------------

TEST(DeltaSnapshotTest, RandomizedAppendEditCompactFuzzNeverDiverges) {
  // A seeded random walk over the whole surface: clean appends (either or
  // both files), appends carrying quarantine-bound records (a bad checksum,
  // an orphan line 2, a malformed WDC day), boundary gaps,
  // in-place prefix edits, at alternating thread counts, with every run
  // that is not an exact hit compacting the inputs into one fresh base.
  // After every round the cached run must be bit-identical to a
  // from-scratch rebuild, and the counters must show either a clean fast
  // path (exact or delta) or an explicit rejection — never a silent
  // divergence.
  Fixture f = make_fixture("fuzz", 6, 4);
  run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/true);

  Rng rng(20260808);
  std::uint64_t delta_hits = 0;
  std::uint64_t rejections = 0;
  for (int round = 0; round < 16; ++round) {
    const std::int64_t action = rng.uniform_int(0, 9);
    if (action == 0) {
      // In-place prefix edit: flip one bit somewhere in the existing file.
      std::string text = io::read_file(f.tle_path);
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1));
      text[pos] = static_cast<char>(text[pos] ^ 0x01);
      io::write_file(f.tle_path, text);
    } else {
      if (action == 1) f.append_corrupt_tle_record();
      if (action == 2) f.append_orphan_line2();
      if (action == 3) f.skip_wdc_day();
      if (action == 4) f.append_corrupt_wdc_day();
      const auto records = rng.uniform_int(0, 2);
      const auto days = rng.uniform_int(0, 2);
      if (records > 0) f.append_tle_records(static_cast<int>(records));
      if (days > 0) f.append_wdc_days(static_cast<int>(days));
      if (action > 4 && records == 0 && days == 0) f.append_tle_records(1);
    }
    const int threads = round % 2 == 0 ? 1 : 4;
    obs::Metrics metrics;
    const RunOutput cached = run_pipeline(f, ParsePolicy::kTolerant, threads,
                                          /*use_cache=*/true, &metrics);
    const RunOutput rebuilt =
        run_pipeline(f, ParsePolicy::kTolerant, threads, /*use_cache=*/false);
    expect_identical(cached, rebuilt);
    const std::uint64_t fast = counter(metrics, "ingest.delta_hit") +
                               counter(metrics, "ingest.cache_hit");
    const std::uint64_t rejected = counter(metrics, "snapshot.rejected");
    EXPECT_TRUE(fast == 1 || rejected >= 1)
        << "round " << round << ": neither fast path nor explicit rejection";
    EXPECT_LE(fast, 1u) << "round " << round;
    EXPECT_EQ(counter(metrics, "snapshot.written"),
              counter(metrics, "ingest.cache_hit") == 1 ? 0u : 1u)
        << "round " << round;
    delta_hits += counter(metrics, "ingest.delta_hit");
    rejections += rejected;
  }
  // The walk must actually have exercised the interesting regimes.
  EXPECT_GE(delta_hits, 5u);
  EXPECT_GE(rejections, 1u);
}

}  // namespace
}  // namespace cosmicdance
