// Malformed-record corpus tests for the hardened ingestion layer.
//
// Builds valid TLE / WDC / OMM corpora, injects malformed records at
// known positions (the "injection manifest"), and checks that:
//   - the tolerant policy never throws, quarantines exactly the injected
//     records (line numbers and categories match the manifest) and accepts
//     everything else;
//   - the strict policy throws on the first error with an actionable
//     message (source, line, category);
//   - parallel ingestion produces bit-identical catalogs and identical
//     quality counters at any thread count;
//   - a deterministic fuzz loop of random single-character corruptions
//     never escapes the tolerant policy as an exception.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "diag/diag.hpp"
#include "io/file.hpp"
#include "obs/obs.hpp"
#include "spaceweather/dst_index.hpp"
#include "spaceweather/wdc.hpp"
#include "support/make_tle.hpp"
#include "timeutil/datetime.hpp"
#include "tle/catalog.hpp"
#include "tle/omm.hpp"
#include "tle/tle.hpp"

namespace cosmicdance {
namespace {

using diag::ErrorCategory;
using diag::ParseLog;
using diag::ParsePolicy;

// ---- corpus builders --------------------------------------------------------

/// The fuzz corpora's element sets start on 2022-03-01.
tle::Tle make_tle(int catalog_number, double epoch_offset_days) {
  return test_support::make_tle(catalog_number, epoch_offset_days,
                                timeutil::make_datetime(2022, 3, 1));
}

std::vector<std::string> valid_tle_lines(int satellites) {
  std::vector<std::string> lines;
  for (int i = 0; i < satellites; ++i) {
    const tle::TleLines formatted =
        tle::format_tle(make_tle(10001 + i, 0.5 * i));
    lines.push_back(formatted.line1);
    lines.push_back(formatted.line2);
  }
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) {
    text += line;
    text.push_back('\n');
  }
  return text;
}

/// Re-stamp a TLE line's checksum after a field edit, so the corruption is
/// caught by the field parser rather than masked by the checksum gate.
std::string restamp(std::string line) {
  line[68] = static_cast<char>('0' + tle::checksum(line.substr(0, 68)));
  return line;
}

/// A five-day Dst ramp, rendered as WDC text lines.
std::vector<std::string> valid_wdc_lines() {
  std::vector<double> values;
  for (int h = 0; h < 5 * 24; ++h) values.push_back(-10.0 - 0.5 * h);
  const spaceweather::DstIndex dst(
      timeutil::make_datetime(2024, 5, 1), std::move(values));
  std::vector<std::string> lines;
  std::istringstream in(spaceweather::to_wdc(dst));
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::size_t category_count(const diag::StageCounters& counters,
                           ErrorCategory category) {
  return counters.quarantined[static_cast<std::size_t>(category)];
}

// ---- TLE corpus -------------------------------------------------------------

struct Injection {
  std::size_t line = 0;  // 1-based line number in the corpus
  ErrorCategory category = ErrorCategory::kSyntax;
};

/// 8 valid records with 4 malformed ones injected; returns the corpus text
/// and fills the manifest.
std::string tle_corpus_with_injections(std::vector<Injection>& manifest) {
  std::vector<std::string> lines = valid_tle_lines(8);

  // Injection 1: flipped checksum digit on record 2's line 1 (line 3).
  lines[2][68] = lines[2][68] == '0' ? '1' : '0';
  manifest.push_back({3, ErrorCategory::kChecksum});

  // Injection 2: non-digit B* mantissa on record 4's line 1 (line 7),
  // checksum re-stamped so the field parser sees it.  Columns 54-61.
  lines[6].replace(53, 8, " 12a45-3");
  lines[6] = restamp(lines[6]);
  manifest.push_back({7, ErrorCategory::kNumeric});

  // Injection 3: letters in record 6's eccentricity field (line 2,
  // columns 27-33), checksum re-stamped.  Quarantine records cite the
  // record's line 1, which is file line 11.
  lines[11].replace(26, 7, "00x6703");
  lines[11] = restamp(lines[11]);
  manifest.push_back({11, ErrorCategory::kNumeric});

  // Injection 4: an orphan line 2 appended at the end (line 17).
  lines.push_back(lines[1]);
  manifest.push_back({17, ErrorCategory::kStructure});

  std::sort(manifest.begin(), manifest.end(),
            [](const Injection& a, const Injection& b) { return a.line < b.line; });
  return join_lines(lines);
}

TEST(IngestionFuzzTle, TolerantQuarantinesExactlyTheInjectedRecords) {
  std::vector<Injection> manifest;
  const std::string text = tle_corpus_with_injections(manifest);

  ParseLog log(ParsePolicy::kTolerant);
  tle::TleCatalog catalog;
  const std::size_t added =
      catalog.add_from_text(text, tle::IngestOptions{&log, 1, "corpus.tle"});

  // 8 records minus 3 malformed two-line records; the orphan line 2 never
  // formed a record.
  EXPECT_EQ(added, 5u);
  EXPECT_EQ(log.stages().at("tle").accepted, 5u);
  ASSERT_EQ(log.quarantined_count(), manifest.size());
  for (std::size_t i = 0; i < manifest.size(); ++i) {
    EXPECT_EQ(log.quarantined()[i].line, manifest[i].line) << "record " << i;
    EXPECT_EQ(log.quarantined()[i].category, manifest[i].category)
        << "record " << i;
    EXPECT_EQ(log.quarantined()[i].source, "corpus.tle");
  }
}

TEST(IngestionFuzzTle, StrictThrowsOnFirstInjectedRecordWithLocation) {
  std::vector<Injection> manifest;
  const std::string text = tle_corpus_with_injections(manifest);

  ParseLog log(ParsePolicy::kStrict);
  tle::TleCatalog catalog;
  try {
    catalog.add_from_text(text, tle::IngestOptions{&log, 1, "corpus.tle"});
    FAIL() << "strict ingestion must throw on the corpus";
  } catch (const ParseError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("corpus.tle:" + std::to_string(manifest.front().line)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find(diag::to_string(manifest.front().category)),
              std::string::npos)
        << what;
  }
}

TEST(IngestionFuzzTle, ParallelIngestionIsBitIdenticalAndCountsMatch) {
  std::vector<Injection> manifest;
  std::vector<std::string> lines = valid_tle_lines(120);
  // Sprinkle corruption through the large corpus.
  for (std::size_t record = 5; record < 120; record += 17) {
    std::string& line1 = lines[record * 2];
    line1[68] = line1[68] == '0' ? '1' : '0';
  }
  const std::string text = join_lines(lines);

  std::string serial_text;
  diag::DataQualityReport serial_report;
  for (const int threads : {1, 2, 4, 0}) {
    ParseLog log(ParsePolicy::kTolerant);
    tle::TleCatalog catalog;
    catalog.add_from_text(text, tle::IngestOptions{&log, threads, "big.tle"});
    const diag::DataQualityReport report = log.report();
    if (threads == 1) {
      serial_text = catalog.to_text();
      serial_report = report;
      continue;
    }
    EXPECT_EQ(catalog.to_text(), serial_text) << "threads=" << threads;
    EXPECT_TRUE(report.stages.at("tle") == serial_report.stages.at("tle"))
        << "threads=" << threads;
    ASSERT_EQ(report.quarantined.size(), serial_report.quarantined.size());
    for (std::size_t i = 0; i < report.quarantined.size(); ++i) {
      EXPECT_EQ(report.quarantined[i].line, serial_report.quarantined[i].line);
      EXPECT_EQ(report.quarantined[i].message,
                serial_report.quarantined[i].message);
    }
  }
}

TEST(IngestionFuzzTle, RandomSingleCharacterCorruptionNeverEscapesTolerant) {
  const std::vector<std::string> pristine = valid_tle_lines(6);
  Rng rng(20240506);
  for (int iteration = 0; iteration < 400; ++iteration) {
    std::vector<std::string> lines = pristine;
    // 1-3 corruptions: replace a character, truncate a line, or drop one.
    const int corruptions = static_cast<int>(rng.uniform_int(1, 3));
    for (int c = 0; c < corruptions; ++c) {
      auto& line = lines[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(lines.size()) - 1))];
      switch (rng.uniform_int(0, 2)) {
        case 0: {
          if (line.empty()) break;
          const auto pos = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(line.size()) - 1));
          line[pos] = static_cast<char>(rng.uniform_int(32, 126));
          break;
        }
        case 1:
          line = line.substr(
              0, static_cast<std::size_t>(
                     rng.uniform_int(0, static_cast<std::int64_t>(line.size()))));
          break;
        default:
          line.clear();
          break;
      }
    }
    ParseLog log(ParsePolicy::kTolerant);
    tle::TleCatalog catalog;
    EXPECT_NO_THROW(catalog.add_from_text(join_lines(lines),
                                          tle::IngestOptions{&log, 1, "fuzz"}))
        << "iteration " << iteration;
    // Conservation: at most one accept/quarantine event per input line.
    const auto it = log.stages().find("tle");
    if (it != log.stages().end()) {
      EXPECT_LE(it->second.accepted + it->second.quarantined_total(), 12u);
    }
  }
}

// ---- shard-boundary fuzz ----------------------------------------------------

/// Byte offset of shard `s`'s start under an even `shards`-way split of
/// `size` bytes — the same arithmetic the pass-1 pairing scan uses before
/// resynchronising each cut to a line start, so the fuzz loop below can aim
/// corruption at the exact bytes where shards meet.
std::size_t shard_cut(std::size_t size, int shards, int s) {
  return size * static_cast<std::size_t>(s) / static_cast<std::size_t>(shards);
}

/// Every formatted TLE line is 69 characters plus the newline.
constexpr std::size_t kTleLineBytes = 70;

TEST(IngestionFuzzTle, ShardBoundaryCorruptionIsBitIdenticalAcrossGeometry) {
  // Deterministic fuzz over corpora whose *quarantined* records straddle
  // shard cut points: for several random shard geometries, find the record
  // each interior cut lands in and corrupt it, then require the catalog
  // text and the full quality JSON to match the serial single-shard
  // reference byte for byte at every (threads, shards) combination — and
  // strict mode to throw the identical first-in-file-order error.  This is
  // the differential the tentpole's stitching pass is contracted against:
  // a record seen by two shards must be committed (or quarantined) exactly
  // once, with serial line numbers.
  Rng rng(20240808);
  for (int iteration = 0; iteration < 8; ++iteration) {
    const int satellites = static_cast<int>(rng.uniform_int(24, 96));
    std::vector<std::string> lines = valid_tle_lines(satellites);

    // The shard geometries this corpus is ingested under (beyond the
    // serial reference).  0 = auto, plus a small and a large pinned count.
    const std::vector<int> shard_counts = {
        0, 2, static_cast<int>(rng.uniform_int(3, 9)),
        static_cast<int>(rng.uniform_int(10, 31))};

    // Corrupt the record under one random interior cut of each pinned
    // geometry.  Offsets are computed against the pristine corpus; the
    // corruptions below keep line boundaries (and therefore the cuts'
    // record positions) stable except for the final truncation, which only
    // shifts bytes after the last cut handled.
    for (const int shards : shard_counts) {
      if (shards < 2) continue;
      const int s = static_cast<int>(rng.uniform_int(1, shards - 1));
      const std::size_t cut =
          shard_cut(static_cast<std::size_t>(satellites) * 2 * kTleLineBytes,
                    shards, s);
      std::string& line = lines[cut / kTleLineBytes];
      if (line.size() < kTleLineBytes - 1) continue;  // already corrupted
      switch (rng.uniform_int(0, 2)) {
        case 0:  // checksum flip: the whole record quarantines
          line[68] = line[68] == '0' ? '1' : '0';
          break;
        case 1:  // non-numeric field, checksum re-stamped
          line.replace(53, 4, "xy.z");
          line = restamp(line);
          break;
        default:  // short line: a structure error at the shard edge
          line.resize(static_cast<std::size_t>(rng.uniform_int(1, 40)));
          break;
      }
    }

    const std::string text = join_lines(lines);
    for (const ParsePolicy policy :
         {ParsePolicy::kTolerant, ParsePolicy::kStrict}) {
      // Serial single-shard reference.
      std::string ref_text;
      std::string ref_quality;
      std::string ref_error;
      {
        ParseLog log(policy);
        tle::TleCatalog catalog;
        tle::IngestOptions options{&log, 1, "fuzz.tle"};
        options.num_shards = 1;
        try {
          catalog.add_from_text(text, options);
          ref_text = catalog.to_text();
          ref_quality = log.report().to_json();
        } catch (const ParseError& error) {
          ref_error = error.what();
        }
      }

      for (const int threads : {1, 4, 8}) {
        for (const int shards : shard_counts) {
          ParseLog log(policy);
          tle::TleCatalog catalog;
          tle::IngestOptions options{&log, threads, "fuzz.tle"};
          options.num_shards = shards;
          std::string got_error;
          try {
            catalog.add_from_text(text, options);
          } catch (const ParseError& error) {
            got_error = error.what();
          }
          const std::string label =
              "iteration " + std::to_string(iteration) + " policy " +
              std::to_string(static_cast<int>(policy)) + " threads " +
              std::to_string(threads) + " shards " + std::to_string(shards);
          EXPECT_EQ(got_error, ref_error) << label;
          if (!ref_error.empty()) continue;
          EXPECT_EQ(catalog.to_text(), ref_text) << label;
          EXPECT_EQ(log.report().to_json(), ref_quality) << label;
        }
      }
    }
  }
}

// ---- WDC corpus -------------------------------------------------------------

TEST(IngestionFuzzWdc, TolerantQuarantinesBadDaysAndInterpolatesTheHole) {
  std::vector<std::string> lines = valid_wdc_lines();
  ASSERT_EQ(lines.size(), 5u);
  // Remember the clean parse for comparison.
  const spaceweather::DstIndex clean =
      spaceweather::from_wdc(join_lines(lines));
  ASSERT_EQ(clean.size(), 120u);

  // Injection: day 3's month becomes 13 (cols 6-7) -> range error.
  lines[2].replace(5, 2, "13");
  // Injection: day 5 truncated -> syntax error (trailing day so no gap).
  lines[4] = lines[4].substr(0, 60);

  ParseLog log(ParsePolicy::kTolerant);
  const spaceweather::DstIndex parsed =
      spaceweather::from_wdc(join_lines(lines), &log, "dst.wdc");

  const auto& counters = log.stages().at("wdc");
  EXPECT_EQ(counters.accepted, 3u);
  EXPECT_EQ(counters.quarantined_total(), 2u);
  EXPECT_EQ(category_count(counters, ErrorCategory::kRange), 1u);
  EXPECT_EQ(category_count(counters, ErrorCategory::kSyntax), 1u);
  ASSERT_EQ(log.quarantined_count(), 2u);
  EXPECT_EQ(log.quarantined()[0].line, 3u);
  EXPECT_EQ(log.quarantined()[1].line, 5u);

  // Day 3's 24-hour hole was linearly interpolated; day 5 trimmed off the
  // end.  The series is contiguous and matches the clean values exactly on
  // this linear ramp.
  EXPECT_EQ(counters.repaired, 24u);
  ASSERT_EQ(parsed.size(), 96u);
  EXPECT_EQ(parsed.start_hour(), clean.start_hour());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_NEAR(parsed.values()[i], clean.values()[i], 0.75) << "hour " << i;
  }
}

TEST(IngestionFuzzWdc, StrictStillThrowsOnGapAndOnBadRecord) {
  std::vector<std::string> lines = valid_wdc_lines();
  lines[2].replace(5, 2, "13");
  ParseLog log(ParsePolicy::kStrict);
  EXPECT_THROW(
      { auto dst = spaceweather::from_wdc(join_lines(lines), &log, "dst.wdc"); },
      ParseError);

  // A pure gap (a deleted day) is a structure error under strict.
  std::vector<std::string> gappy = valid_wdc_lines();
  gappy.erase(gappy.begin() + 2);
  EXPECT_THROW({ auto dst = spaceweather::from_wdc(join_lines(gappy)); },
               ParseError);
}

TEST(IngestionFuzzWdc, TolerantQuarantinesOutOfOrderDays) {
  std::vector<std::string> lines = valid_wdc_lines();
  std::swap(lines[1], lines[2]);
  ParseLog log(ParsePolicy::kTolerant);
  const spaceweather::DstIndex parsed =
      spaceweather::from_wdc(join_lines(lines), &log, "dst.wdc");
  // Day 2 arrives after day 3 and is dropped whole; its hole is repaired.
  EXPECT_EQ(category_count(log.stages().at("wdc"), ErrorCategory::kStructure),
            1u);
  EXPECT_EQ(log.stages().at("wdc").repaired, 24u);
  EXPECT_EQ(parsed.size(), 120u);
}

// ---- OMM corpus -------------------------------------------------------------

TEST(IngestionFuzzOmm, TolerantQuarantinesBadBlocks) {
  tle::TleCatalog source;
  source.add(make_tle(31001, 0.0));
  source.add(make_tle(31002, 0.0));
  source.add(make_tle(31003, 0.0));
  std::string text = tle::catalog_to_omm_kvn(source);
  // Corrupt the middle block's MEAN_MOTION value.
  const std::size_t pos = text.find("MEAN_MOTION =", text.find("MEAN_MOTION =") + 1);
  ASSERT_NE(pos, std::string::npos);
  const std::size_t eol = text.find('\n', pos);
  text.replace(pos, eol - pos, "MEAN_MOTION = fifteen");

  ParseLog log(ParsePolicy::kTolerant);
  tle::TleCatalog parsed;
  const std::size_t added = tle::catalog_add_from_omm_kvn(parsed, text, &log, "c.omm");
  EXPECT_EQ(added, 2u);
  EXPECT_EQ(log.stages().at("omm").accepted, 2u);
  ASSERT_EQ(log.quarantined_count(), 1u);
  EXPECT_EQ(log.quarantined()[0].category, ErrorCategory::kNumeric);

  // Strict: same corpus throws.
  ParseLog strict(ParsePolicy::kStrict);
  tle::TleCatalog rejected;
  EXPECT_THROW(
      {
        static_cast<void>(
            tle::catalog_add_from_omm_kvn(rejected, text, &strict, "c.omm"));
      },
      ParseError);
}

// ---- whole-pipeline ingestion ----------------------------------------------

class IngestionFiles : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("cd_ingest_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string path(const std::string& name) const { return (dir_ / name).string(); }
  std::filesystem::path dir_;
};

TEST_F(IngestionFiles, TolerantPipelineRunCompletesAndReportsIdenticallyAcrossThreads) {
  // Dst: 5 clean days plus one corrupted record.
  std::vector<std::string> wdc = valid_wdc_lines();
  wdc[1].replace(5, 2, "13");
  io::write_file(path("dst.wdc"), join_lines(wdc));

  // TLEs: 30 records, one checksum-corrupted.
  std::vector<std::string> tles = valid_tle_lines(30);
  tles[8][68] = tles[8][68] == '0' ? '1' : '0';
  io::write_file(path("catalog.tle"), join_lines(tles));

  diag::DataQualityReport first_report;
  std::size_t first_tracks = 0;
  for (const int threads : {1, 0}) {
    core::PipelineConfig config;
    config.num_threads = threads;
    config.parse_policy = ParsePolicy::kTolerant;
    const core::CosmicDance pipeline = core::CosmicDance::from_files(
        path("dst.wdc"), path("catalog.tle"), config);

    const diag::DataQualityReport& report = pipeline.quality_report();
    EXPECT_EQ(report.total_quarantined(), 2u);
    EXPECT_EQ(report.stages.at("wdc").repaired, 24u);
    EXPECT_EQ(report.stages.at("tle").accepted, 29u);
    if (threads == 1) {
      first_report = report;
      first_tracks = pipeline.tracks().size();
      continue;
    }
    EXPECT_EQ(pipeline.tracks().size(), first_tracks);
    EXPECT_TRUE(report.stages.at("tle") == first_report.stages.at("tle"));
    EXPECT_TRUE(report.stages.at("wdc") == first_report.stages.at("wdc"));
    ASSERT_EQ(report.quarantined.size(), first_report.quarantined.size());
    for (std::size_t i = 0; i < report.quarantined.size(); ++i) {
      EXPECT_EQ(report.quarantined[i].line, first_report.quarantined[i].line);
      EXPECT_EQ(report.quarantined[i].source, first_report.quarantined[i].source);
    }
  }
}

TEST_F(IngestionFiles, AppendCorpusLoopNeverSilentlyDiverges) {
  // The incremental-ingestion escape hatch under fuzz (DESIGN.md §14): a
  // corpus that grows by whole records, tears its trailing record (with and
  // without the final newline), and occasionally truncates mid-record.
  // Every round, the cached run must either take a fast path (exact or
  // delta hit) or reject the snapshot outright — and in all cases produce
  // the same catalog, Dst series and quality report as an uncached parse
  // of the same bytes.  Silent divergence is the one forbidden outcome.
  io::write_file(path("dst.wdc"), join_lines(valid_wdc_lines()));
  io::write_file(path("catalog.tle"), join_lines(valid_tle_lines(20)));

  const auto run = [&](bool use_cache, obs::Metrics* metrics) {
    core::PipelineConfig config;
    config.parse_policy = ParsePolicy::kTolerant;
    config.num_threads = 1;
    config.metrics = metrics;
    if (use_cache) config.cache_dir = path("cache");
    const core::CosmicDance pipeline = core::CosmicDance::from_files(
        path("dst.wdc"), path("catalog.tle"), config);
    std::vector<double> dst(pipeline.dst().values().begin(),
                            pipeline.dst().values().end());
    return std::tuple(pipeline.catalog().to_text(), std::move(dst),
                      pipeline.quality_report().to_json());
  };
  const auto counter = [](const obs::Metrics& metrics, const char* name) {
    const obs::MetricsReport report = metrics.snapshot();
    const auto it = report.counters.find(name);
    return it != report.counters.end() ? it->second : std::uint64_t{0};
  };
  run(/*use_cache=*/true, nullptr);  // seed the snapshot

  Rng rng(20260806);
  double epoch_offset = 200.0;  // past the seed corpus's epochs
  timeutil::HourIndex next_day =
      timeutil::hour_index_from_datetime(timeutil::make_datetime(2024, 5, 6));
  bool torn_open = false;  // last append left an unterminated line
  for (int round = 0; round < 25; ++round) {
    std::string tail = torn_open ? "\n" : "";
    torn_open = false;
    switch (rng.uniform_int(0, 6)) {
      case 0:
      case 1: {  // grow by 1-2 whole records
        const int count = static_cast<int>(rng.uniform_int(1, 2));
        for (int i = 0; i < count; ++i) {
          const tle::TleLines lines =
              tle::format_tle(make_tle(10001, epoch_offset));
          epoch_offset += 0.25;
          tail += lines.line1 + "\n" + lines.line2 + "\n";
        }
        break;
      }
      case 2: {  // grow the Dst series by one day
        std::vector<double> values;
        for (int h = 0; h < 24; ++h) {
          values.push_back(-12.0 - static_cast<double>((next_day + h) % 200));
        }
        tail.clear();  // dst file never tears in this loop
        io::append_file(path("dst.wdc"),
                        spaceweather::to_wdc(spaceweather::DstIndex(
                            next_day, std::move(values))));
        next_day += 24;
        break;
      }
      case 3: {  // torn trailing record: line 1 lands, line 2 never does
        const tle::TleLines lines =
            tle::format_tle(make_tle(10001, epoch_offset));
        epoch_offset += 0.25;
        tail += lines.line1 + "\n";
        break;
      }
      case 4: {  // torn harder: the trailing newline is missing too
        const tle::TleLines lines =
            tle::format_tle(make_tle(10001, epoch_offset));
        epoch_offset += 0.25;
        tail += lines.line1;
        torn_open = true;
        break;
      }
      default: {  // mid-record truncation: the file shrinks
        std::string text = io::read_file(path("catalog.tle"));
        const auto cut = static_cast<std::size_t>(rng.uniform_int(
            1, std::min<std::int64_t>(
                   100, static_cast<std::int64_t>(text.size()) - 1)));
        text.resize(text.size() - cut);
        io::write_file(path("catalog.tle"), text);
        tail.clear();
        torn_open = true;  // the cut can land mid-line
        break;
      }
    }
    if (!tail.empty()) io::append_file(path("catalog.tle"), tail);

    obs::Metrics metrics;
    const auto cached = run(/*use_cache=*/true, &metrics);
    const auto uncached = run(/*use_cache=*/false, nullptr);
    EXPECT_EQ(std::get<0>(cached), std::get<0>(uncached)) << "round " << round;
    EXPECT_EQ(std::get<1>(cached), std::get<1>(uncached)) << "round " << round;
    EXPECT_EQ(std::get<2>(cached), std::get<2>(uncached)) << "round " << round;
    const std::uint64_t fast = counter(metrics, "ingest.delta_hit") +
                               counter(metrics, "ingest.cache_hit");
    EXPECT_TRUE(fast == 1 || counter(metrics, "snapshot.rejected") >= 1)
        << "round " << round
        << ": the cache must hit, extend, or explicitly reject";
  }
}

TEST_F(IngestionFiles, StrictPipelineRunThrowsWithFileAndLine) {
  std::vector<std::string> wdc = valid_wdc_lines();
  io::write_file(path("dst.wdc"), join_lines(wdc));
  std::vector<std::string> tles = valid_tle_lines(3);
  tles[2][68] = tles[2][68] == '0' ? '1' : '0';
  io::write_file(path("catalog.tle"), join_lines(tles));

  core::PipelineConfig config;
  config.parse_policy = ParsePolicy::kStrict;
  try {
    const auto pipeline = core::CosmicDance::from_files(
        path("dst.wdc"), path("catalog.tle"), config);
    FAIL() << "strict pipeline must throw on the corrupted catalog";
  } catch (const ParseError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("catalog.tle:3"), std::string::npos) << what;
    EXPECT_NE(what.find("checksum"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace cosmicdance
