// Tests for the CLI-supporting components: argument parsing, CSV export,
// and the tools/bench_compare.py telemetry differ (run as a subprocess).
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/export.hpp"
#include "io/args.hpp"
#include "io/file.hpp"
#include "io/parse.hpp"
#include "serve/json.hpp"
#include "spaceweather/dst_index.hpp"
#include "spaceweather/wdc.hpp"
#include "support/temp_dir.hpp"
#include "timeutil/datetime.hpp"
#include "tle/omm.hpp"
#include "tle/tle.hpp"

namespace cosmicdance {
namespace {

using io::ArgParser;
using test_support::ScopedTempDir;

TEST(ArgsTest, CommandAndPositionals) {
  const ArgParser args({"analyze", "extra1", "extra2"});
  EXPECT_EQ(args.command(), "analyze");
  ASSERT_EQ(args.positionals().size(), 2u);
  EXPECT_EQ(args.positionals()[0], "extra1");
}

TEST(ArgsTest, OptionsWithValues) {
  const ArgParser args({"simulate", "--dst", "d.wdc", "--seed", "42"});
  EXPECT_EQ(args.option_or("dst", "x"), "d.wdc");
  EXPECT_EQ(args.integer_or("seed", 0), 42);
  EXPECT_FALSE(args.option("missing").has_value());
  EXPECT_EQ(args.option_or("missing", "fallback"), "fallback");
}

TEST(ArgsTest, FlagsWithoutValues) {
  const ArgParser args({"cmd", "--verbose", "--out", "f.csv"});
  EXPECT_TRUE(args.flag("verbose"));
  EXPECT_FALSE(args.option("verbose").has_value());
  EXPECT_TRUE(args.flag("out"));
  EXPECT_EQ(args.option_or("out", ""), "f.csv");
  EXPECT_FALSE(args.flag("absent"));
}

TEST(ArgsTest, TrailingFlag) {
  const ArgParser args({"cmd", "--dry-run"});
  EXPECT_TRUE(args.flag("dry-run"));
}

TEST(ArgsTest, NumberParsing) {
  const ArgParser args({"cmd", "--threshold", "-63.5", "--count", "7"});
  EXPECT_DOUBLE_EQ(args.number_or("threshold", 0.0), -63.5);
  EXPECT_EQ(args.integer_or("count", 0), 7);
  EXPECT_DOUBLE_EQ(args.number_or("absent", 1.5), 1.5);
}

TEST(ArgsTest, NumberErrors) {
  const ArgParser args({"cmd", "--threshold", "abc"});
  EXPECT_THROW((void)args.number_or("threshold", 0.0), ParseError);
  EXPECT_THROW((void)args.integer_or("threshold", 0), ParseError);
  // strtod reads these, but no option means anything by them.
  for (const char* value : {"nan", "inf", "-inf", "1e999"}) {
    SCOPED_TRACE(value);
    const ArgParser non_finite({"cmd", "--days", value});
    EXPECT_THROW((void)non_finite.number_or("days", 30.0), ParseError);
  }
}

TEST(ArgsTest, NonnegativeIntegerAcceptsZeroAndPositive) {
  const ArgParser args({"cmd", "--threads", "4"});
  EXPECT_EQ(args.nonnegative_integer_or("threads", 0), 4);
  EXPECT_EQ(args.nonnegative_integer_or("absent", 8), 8);
  const ArgParser zero({"cmd", "--threads", "0"});
  EXPECT_EQ(zero.nonnegative_integer_or("threads", 2), 0);
}

TEST(ArgsTest, NonnegativeIntegerRejectsNegativesWithAClearMessage) {
  // "-3" parses fine as an integer (NegativeNumbersAreValuesNotOptions
  // below), so thread counts need the sign check on top — a negative
  // count would otherwise be cast straight into the exec pool size.
  const ArgParser args({"cmd", "--threads", "-3"});
  try {
    (void)args.nonnegative_integer_or("threads", 0);
    FAIL() << "negative --threads accepted";
  } catch (const ParseError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("--threads"), std::string::npos) << message;
    EXPECT_NE(message.find("non-negative"), std::string::npos) << message;
    EXPECT_NE(message.find("-3"), std::string::npos) << message;
  }
}

TEST(ArgsTest, NegativeNumbersAreValuesNotOptions) {
  // "-63" does not start with "--", so it is consumed as a value.
  const ArgParser args({"cmd", "--threshold", "-63"});
  EXPECT_DOUBLE_EQ(args.number_or("threshold", 0.0), -63.0);
}

TEST(ArgsTest, CheckKnownCatchesTypos) {
  const ArgParser args({"cmd", "--outt", "f"});
  EXPECT_THROW(args.check_known({"out"}), ParseError);
  EXPECT_NO_THROW(args.check_known({"outt"}));
}

TEST(ArgsTest, RejectsBareDoubleDash) {
  EXPECT_THROW(ArgParser({"cmd", "--"}), ParseError);
}

TEST(ArgsTest, ArgcArgvConstructorSkipsProgramName) {
  const char* argv[] = {"prog", "storms", "--dst", "d.wdc"};
  const ArgParser args(4, argv);
  EXPECT_EQ(args.command(), "storms");
  EXPECT_EQ(args.option_or("dst", ""), "d.wdc");
}

// ------------------------------- export -------------------------------------

TEST(ExportTest, EcdfCsvShape) {
  const std::vector<double> sample{1.0, 2.0, 3.0, 4.0};
  const auto rows = core::ecdf_csv(stats::Ecdf(sample), "alt_km", 10);
  ASSERT_GE(rows.size(), 3u);
  EXPECT_EQ(rows[0], (io::CsvRow{"alt_km", "cdf"}));
  EXPECT_EQ(rows.back()[1], "1");
  // Parse-back sanity: values are numeric and monotone.
  double previous = -1e9;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    const auto x = io::parse_double(rows[i][0]);
    ASSERT_TRUE(x.has_value()) << "non-numeric CSV cell: " << rows[i][0];
    EXPECT_GE(*x, previous);
    previous = *x;
  }
}

TEST(ExportTest, StormsCsv) {
  spaceweather::StormEvent event;
  event.start_hour = timeutil::hour_index_from_datetime(
      timeutil::make_datetime(2023, 4, 23, 19));
  event.end_hour = event.start_hour + 17;
  event.peak_hour = event.start_hour + 5;
  event.peak_dst_nt = -213.0;
  event.category = spaceweather::StormCategory::kSevere;
  const auto rows = core::storms_csv(std::vector<spaceweather::StormEvent>{event});
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1][2], "-213");
  EXPECT_EQ(rows[1][3], "severe");
  EXPECT_EQ(rows[1][4], "17");
  EXPECT_NE(rows[1][0].find("2023-04-23"), std::string::npos);
}

// ---- tools/bench_compare.py -------------------------------------------------
//
// The differ is tier-1 plumbing (tools/run_tier1.sh pass 4 feeds it
// BENCH_*.json records), so its contract is pinned here: completed
// comparisons — including regressions, which are warn-only — exit 0, while
// malformed input of any kind exits 2 with an actionable message instead
// of a traceback.

struct CommandResult {
  int exit_code = -1;
  std::string output;  // stdout and stderr, interleaved
};

CommandResult run_command(const std::string& command) {
  CommandResult result;
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    result.output.append(buffer, n);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

class BenchCompareTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (run_command("python3 -c 'pass'").exit_code != 0) {
      GTEST_SKIP() << "python3 not available";
    }
  }

  std::string write_record(const std::string& name, const std::string& json) {
    const std::string path = dir_.path() + "/" + name;
    io::write_file(path, json);
    return path;
  }

  CommandResult compare(const std::string& baseline, const std::string& current,
                        const std::string& extra = "") {
    const std::string script =
        std::string(COSMICDANCE_REPO_ROOT) + "/tools/bench_compare.py";
    return run_command("python3 '" + script + "' '" + baseline + "' '" +
                       current + "' " + extra);
  }

  // Per-process directory: ctest runs each TEST_F as its own process in
  // parallel, so a shared fixture dir would let one test's cleanup delete
  // another's files mid-run.  (The pid, not the test name: error messages
  // echo the path, and assertions below inspect the output.)
  const ScopedTempDir dir_{"cd_bench_compare"};
};

TEST_F(BenchCompareTest, CompletedComparisonExitsZero) {
  const std::string baseline = write_record(
      "base.json", R"({"bench": "b", "throughput": {"a": 100, "b": 50}})");
  const std::string current = write_record(
      "cur.json", R"({"bench": "b", "throughput": {"a": 110, "b": 49}})");
  const CommandResult result = compare(baseline, current);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("ok    b/a"), std::string::npos) << result.output;
}

TEST_F(BenchCompareTest, RegressionsWarnButStillExitZero) {
  const std::string baseline =
      write_record("base.json", R"({"bench": "b", "throughput": {"a": 100}})");
  const std::string current =
      write_record("cur.json", R"({"bench": "b", "throughput": {"a": 10}})");
  const CommandResult result = compare(baseline, current);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("WARN"), std::string::npos) << result.output;
}

TEST_F(BenchCompareTest, FailUnderGatesCollapsesWithExitOne) {
  // -90% is past any sane gate; tier-1 wires --fail-under=40 for the
  // ingest and sgp4 records, so the exit-1 path is load-bearing CI.
  const std::string baseline =
      write_record("base.json", R"({"bench": "b", "throughput": {"a": 100}})");
  const std::string current =
      write_record("cur.json", R"({"bench": "b", "throughput": {"a": 10}})");
  const CommandResult result = compare(baseline, current, "--fail-under=40");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("FAIL  b/a"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("collapsed beyond the --fail-under gate"),
            std::string::npos)
      << result.output;
}

TEST_F(BenchCompareTest, FailUnderStillWarnsInsideTheGateBand) {
  // A -35% drop is beyond the 30% warn tolerance but inside the 40% gate:
  // the run must warn, not fail — the two thresholds are independent.
  const std::string baseline =
      write_record("base.json", R"({"bench": "b", "throughput": {"a": 100}})");
  const std::string current =
      write_record("cur.json", R"({"bench": "b", "throughput": {"a": 65}})");
  const CommandResult result = compare(baseline, current, "--fail-under=40");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("WARN"), std::string::npos) << result.output;
  EXPECT_EQ(result.output.find("FAIL"), std::string::npos) << result.output;
}

TEST_F(BenchCompareTest, AsymmetricKeysAreNotesNotErrors) {
  const std::string baseline =
      write_record("base.json", R"({"bench": "b", "throughput": {"old": 5}})");
  const std::string current =
      write_record("cur.json", R"({"bench": "b", "throughput": {"new": 7}})");
  const CommandResult result = compare(baseline, current);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("NOTE"), std::string::npos) << result.output;
}

TEST_F(BenchCompareTest, EmptyFileExitsTwoWithClearMessage) {
  const std::string baseline = write_record("base.json", "");
  const std::string current =
      write_record("cur.json", R"({"bench": "b", "throughput": {"a": 1}})");
  const CommandResult result = compare(baseline, current);
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("bench_compare: cannot read"), std::string::npos)
      << result.output;
  EXPECT_EQ(result.output.find("Traceback"), std::string::npos) << result.output;
}

TEST_F(BenchCompareTest, MissingThroughputObjectExitsTwo) {
  const std::string baseline = write_record("base.json", R"({"bench": "b"})");
  const std::string current =
      write_record("cur.json", R"({"bench": "b", "throughput": {"a": 1}})");
  const CommandResult result = compare(baseline, current);
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("not a bench record"), std::string::npos)
      << result.output;
}

TEST_F(BenchCompareTest, NonNumericThroughputExitsTwoInsteadOfTraceback) {
  // Regression: a string (or nested object) rate used to raise inside the
  // float() conversion and escape as a traceback with a misleading exit 1.
  const std::string baseline = write_record(
      "base.json", R"({"bench": "b", "throughput": {"a": "fast"}})");
  const std::string current = write_record(
      "cur.json", R"({"bench": "b", "throughput": {"a": {"rate": 1}}})");
  for (const auto& [first, second] :
       {std::pair(baseline, current), std::pair(current, baseline)}) {
    const CommandResult result = compare(first, second);
    EXPECT_EQ(result.exit_code, 2) << result.output;
    EXPECT_NE(result.output.find("is not a number"), std::string::npos)
        << result.output;
    EXPECT_EQ(result.output.find("Traceback"), std::string::npos)
        << result.output;
  }
}

TEST_F(BenchCompareTest, BadUsageExitsTwo) {
  const std::string record =
      write_record("base.json", R"({"bench": "b", "throughput": {"a": 1}})");
  EXPECT_EQ(compare(record, record, "--tolerance=abc").exit_code, 2);
  EXPECT_EQ(compare(record, record, "--bogus=1").exit_code, 2);
  EXPECT_EQ(compare(record, record, "--fail-under=abc").exit_code, 2);
  EXPECT_EQ(compare(record, record, "--fail-under=150").exit_code, 2);
  const std::string script =
      std::string(COSMICDANCE_REPO_ROOT) + "/tools/bench_compare.py";
  EXPECT_EQ(run_command("python3 '" + script + "'").exit_code, 2);
}

// ---- negative --threads at the process boundary -----------------------------
//
// Both front-ends funnel --threads through nonnegative_integer_or, and the
// check fires before any input file is opened — the missing .wdc/.tle paths
// below prove the ordering: a file error would be a different message.

TEST(CliThreadsTest, CliRejectsNegativeThreadsWithAUsageError) {
  const std::string out_dir = ::testing::TempDir() + "cd_cli_threads";
  std::filesystem::remove_all(out_dir);  // what an older build left behind
  const CommandResult result = run_command(
      std::string("'") + COSMICDANCE_CLI_BINARY +
      "' analyze --dst missing.wdc --tles missing.tle --out-dir '" + out_dir +
      "' --threads -3");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("--threads"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("non-negative"), std::string::npos)
      << result.output;
  EXPECT_FALSE(std::filesystem::exists(out_dir))
      << "a rejected run left its --out-dir behind";
}

TEST(CliThreadsTest, DaemonRejectsNegativeThreadsBeforeListening) {
  const CommandResult result = run_command(
      std::string("'") + COSMICDANCED_BINARY +
      "' --listen 127.0.0.1:0 --dst missing.wdc --tles missing.tle"
      " --threads -3");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("--threads"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("non-negative"), std::string::npos)
      << result.output;
}

// ---- the CLI joins its background cache write ------------------------------
//
// Every cached run that is not an exact hit rewrites the snapshot on a
// background thread.  analyze joins that write in its own phase before it
// writes --metrics, so the file always shows the write and the wait.

/// `days` days of Dst starting `first_day` days into May 2024, as WDC text.
std::string dst_days(int first_day, int days) {
  std::vector<double> values;
  for (int h = 0; h < days * 24; ++h) {
    values.push_back((first_day * 24 + h) % 97 == 0 ? -120.0 : -15.0);
  }
  return spaceweather::to_wdc(spaceweather::DstIndex(
      timeutil::make_datetime(2024, 5, 1 + first_day), std::move(values)));
}

/// Four satellites with one element set every half day for `days` days.
std::string tle_days(int first_day, int days) {
  std::string text;
  for (int sat = 0; sat < 4; ++sat) {
    for (int k = 0; k < 2 * days; ++k) {
      tle::Tle record;
      record.catalog_number = 45001 + sat;
      record.international_designator = "20001A";
      record.epoch_jd = timeutil::to_julian(timeutil::make_datetime(2024, 5, 1)) +
                        first_day + 0.5 * k + 0.01 * sat;
      record.bstar = 1.4e-4;
      record.inclination_deg = 53.05;
      record.raan_deg = 120.5;
      record.eccentricity = 0.0002;
      record.arg_perigee_deg = 90.0;
      record.mean_anomaly_deg = 45.0;
      record.mean_motion_revday = 15.05;
      record.element_set_number = 999;
      record.rev_number = 12345;
      const tle::TleLines lines = tle::format_tle(record);
      text += lines.line1 + "\n" + lines.line2 + "\n";
    }
  }
  return text;
}

/// The named counter in a --metrics JSON file, or -1 when it is absent.
long metrics_counter(const serve::JsonValue& metrics, const std::string& name) {
  const serve::JsonValue* value = metrics.find("counters")->find(name);
  return value != nullptr ? io::parse_long(value->text).value_or(-1) : -1;
}

TEST(CliCacheTest, ColdAndAppendRunsReportTheirSaveAndItsJoin) {
  const ScopedTempDir temp("cd_cli_cache");
  const std::string& dir = temp.path();
  io::write_file(dir + "/dst.wdc", dst_days(0, 20));
  io::write_file(dir + "/catalog.tle", tle_days(0, 20));
  const auto analyze = [&](const std::string& run) {
    const CommandResult result = run_command(
        std::string("'") + COSMICDANCE_CLI_BINARY + "' analyze --dst '" + dir +
        "/dst.wdc' --tles '" + dir + "/catalog.tle' --out-dir '" + dir + "/" +
        run + "' --cache-dir '" + dir + "/cache' --metrics '" + dir + "/" +
        run + ".json'");
    EXPECT_EQ(result.exit_code, 0) << result.output;
    return serve::parse_json(io::read_file(dir + "/" + run + ".json"));
  };

  const auto cold = analyze("cold");
  io::append_file(dir + "/dst.wdc", dst_days(20, 1));
  io::append_file(dir + "/catalog.tle", tle_days(20, 1));
  const auto append = analyze("append");
  ASSERT_TRUE(cold.has_value());
  ASSERT_TRUE(append.has_value());
  EXPECT_EQ(metrics_counter(*append, "ingest.delta_hit"), 1);
  for (const serve::JsonValue* metrics : {&*cold, &*append}) {
    EXPECT_EQ(metrics_counter(*metrics, "snapshot.written"), 1);
    EXPECT_NE(metrics->find("phases")->find("snapshot.save"), nullptr);
    EXPECT_NE(metrics->find("phases")->find("analyze.save_join"), nullptr);
    EXPECT_NE(metrics->find("phases")->find("analyze.teardown"), nullptr);
  }
}

TEST(CliCacheTest, AnUnwritableCacheDirCountsTheFailedWriteAndChangesNoOutput) {
  // A --cache-dir that is a regular file: the snapshot write fails, which
  // is counted and never fails the run or changes what it writes.
  const ScopedTempDir temp("cd_cli_cache_file");
  const std::string& dir = temp.path();
  io::write_file(dir + "/dst.wdc", dst_days(0, 20));
  io::write_file(dir + "/catalog.tle", tle_days(0, 20));
  io::write_file(dir + "/not_a_dir", "");
  const auto analyze = [&](const std::string& run, const std::string& flags) {
    const CommandResult result = run_command(
        std::string("'") + COSMICDANCE_CLI_BINARY + "' analyze --dst '" + dir +
        "/dst.wdc' --tles '" + dir + "/catalog.tle' --out-dir '" + dir + "/" +
        run + "'" + flags);
    EXPECT_EQ(result.exit_code, 0) << result.output;
  };
  analyze("cached", " --cache-dir '" + dir + "/not_a_dir' --metrics '" + dir +
                        "/metrics.json'");
  analyze("uncached", "");

  const auto metrics = serve::parse_json(io::read_file(dir + "/metrics.json"));
  ASSERT_TRUE(metrics.has_value());
  EXPECT_EQ(metrics_counter(*metrics, "snapshot.write_failed"), 1);
  EXPECT_EQ(metrics_counter(*metrics, "snapshot.written"), -1);
  EXPECT_EQ(io::read_file(dir + "/not_a_dir"), "");
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir + "/uncached")) {
    files.push_back(entry.path().filename().string());
  }
  ASSERT_FALSE(files.empty());
  for (const std::string& file : files) {
    SCOPED_TRACE(file);
    EXPECT_EQ(io::read_file(dir + "/cached/" + file),
              io::read_file(dir + "/uncached/" + file));
  }
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir + "/cached"),
                          std::filesystem::directory_iterator()),
            static_cast<std::ptrdiff_t>(files.size()));
}

TEST(CliCacheTest, ReportTimesItsJoinAndTeardownOnBothExits) {
  const ScopedTempDir temp("cd_cli_report");
  const std::string& dir = temp.path();
  io::write_file(dir + "/dst.wdc", dst_days(0, 20));
  io::write_file(dir + "/catalog.tle", tle_days(0, 20));
  for (const std::string& extra :
       {std::string(), " --markdown '" + dir + "/report.md'"}) {
    SCOPED_TRACE("report" + extra);
    const CommandResult result = run_command(
        std::string("'") + COSMICDANCE_CLI_BINARY + "' report --dst '" + dir +
        "/dst.wdc' --tles '" + dir + "/catalog.tle' --cache-dir '" + dir +
        "/cache' --metrics '" + dir + "/report.json'" + extra);
    ASSERT_EQ(result.exit_code, 0) << result.output;
    const auto metrics = serve::parse_json(io::read_file(dir + "/report.json"));
    ASSERT_TRUE(metrics.has_value());
    EXPECT_NE(metrics->find("phases")->find("report.save_join"), nullptr);
    EXPECT_NE(metrics->find("phases")->find("report.teardown"), nullptr);
  }
}

// ---- analyze over inputs without a usable record ----------------------------
//
// analyze writes each figure only when it has samples.  A TLE input whose
// every record is quarantined, or an empty one, leaves only the Dst figures
// to write, and the run succeeds; an empty Dst series stops at its
// intensity percentile, as report does.

struct AnalyzeRun {
  CommandResult result;
  std::vector<std::string> files;  ///< the out-dir's file names, sorted
};

AnalyzeRun analyze_texts(const std::string& name, const std::string& dst,
                         const std::string& tles, const std::string& flags) {
  const ScopedTempDir temp("cd_cli_empty_" + name);
  const std::string& dir = temp.path();
  std::filesystem::create_directories(dir + "/out");
  io::write_file(dir + "/dst.wdc", dst);
  io::write_file(dir + "/catalog.tle", tles);
  AnalyzeRun run;
  run.result = run_command(std::string("'") + COSMICDANCE_CLI_BINARY +
                           "' analyze --dst '" + dir + "/dst.wdc' --tles '" +
                           dir + "/catalog.tle' --out-dir '" + dir + "/out'" +
                           flags);
  for (const auto& entry : std::filesystem::directory_iterator(dir + "/out")) {
    run.files.push_back(entry.path().filename().string());
  }
  std::sort(run.files.begin(), run.files.end());
  return run;
}

TEST(CliEmptyInputTest, TolerantAnalyzeOfOnlyBrokenRecordsWritesTheDstFigures) {
  // Two records, each with its line-1 checksum digit (column 69) off by one.
  std::string tles = tle_days(0, 1).substr(0, 4 * 70);
  for (const std::size_t line : {0u, 140u}) {
    char& digit = tles[line + 68];
    digit = digit == '9' ? '0' : static_cast<char>(digit + 1);
  }
  const AnalyzeRun run =
      analyze_texts("broken", dst_days(0, 20), tles, " --parse-policy tolerant");
  EXPECT_EQ(run.result.exit_code, 0) << run.result.output;
  EXPECT_NE(run.result.output.find("quarantined"), std::string::npos)
      << run.result.output;
  EXPECT_EQ(run.files,
            (std::vector<std::string>{"fig01_intensity_cdf.csv", "storms.csv"}));
}

TEST(CliEmptyInputTest, AnalyzeOfAnEmptyTleFileWritesTheDstFigures) {
  const AnalyzeRun run = analyze_texts("tle", dst_days(0, 20), "", "");
  EXPECT_EQ(run.result.exit_code, 0) << run.result.output;
  EXPECT_EQ(run.files,
            (std::vector<std::string>{"fig01_intensity_cdf.csv", "storms.csv"}));
}

TEST(CliEmptyInputTest, AnalyzeOfAnEmptyDstFileStopsAtThePercentile) {
  const AnalyzeRun run = analyze_texts("dst", "", tle_days(0, 20), "");
  EXPECT_EQ(run.result.exit_code, 1) << run.result.output;
  EXPECT_NE(run.result.output.find("intensity percentile of empty Dst series"),
            std::string::npos)
      << run.result.output;
}

// ---- convert --to-tles over a non-finite OMM field --------------------------
//
// An OMM BSTAR of 1e999 reads as infinity, and the TLE formatter's
// normalising loop never ended on one; NaN broke its column widths.
// Validation now rejects both, so the strict policy fails the run and the
// tolerant one quarantines the record.  `timeout` bounds each run: a hang
// shows up as exit status 124.

TEST(CliConvertTest, NonFiniteOmmFieldFailsStrictAndIsQuarantinedTolerant) {
  const ScopedTempDir temp("cd_cli_convert");
  const std::string& dir = temp.path();
  tle::Tle record;
  record.catalog_number = 45001;
  record.international_designator = "20001A";
  record.epoch_jd = timeutil::to_julian(timeutil::make_datetime(2024, 5, 1));
  record.bstar = 1.4e-4;
  record.inclination_deg = 53.05;
  record.mean_motion_revday = 15.05;
  const std::string good = tle::to_omm_kvn(record);
  record.catalog_number = 45002;
  const std::string template_block = tle::to_omm_kvn(record);
  const std::size_t bstar = template_block.find("BSTAR = ");
  ASSERT_NE(bstar, std::string::npos);
  const std::size_t bstar_end = template_block.find('\n', bstar);

  for (const std::string value : {"1e999", "inf", "-inf", "nan"}) {
    SCOPED_TRACE("BSTAR = " + value);
    std::string bad = template_block;
    bad.replace(bstar, bstar_end - bstar, "BSTAR = " + value);
    io::write_file(dir + "/in.kvn", good + "\n" + bad);
    const std::string convert = "timeout 60 '" + std::string(COSMICDANCE_CLI_BINARY) +
                                "' convert --omm '" + dir + "/in.kvn' --to-tles '" +
                                dir + "/out.tle'";

    const CommandResult strict = run_command(convert);
    EXPECT_EQ(strict.exit_code, 1) << strict.output;
    EXPECT_NE(strict.output.find("bstar is not finite"), std::string::npos)
        << strict.output;

    const CommandResult tolerant = run_command(
        convert + " --parse-policy tolerant --quality-report '" + dir + "/q.json'");
    ASSERT_EQ(tolerant.exit_code, 0) << tolerant.output;
    const auto report = serve::parse_json(io::read_file(dir + "/q.json"));
    ASSERT_TRUE(report.has_value());
    const serve::JsonValue* quarantined = report->find("quarantined");
    ASSERT_NE(quarantined, nullptr);
    ASSERT_EQ(quarantined->items.size(), 1u);
    EXPECT_EQ(quarantined->items[0].find("category")->text, "range");
    // Only the good record is written.
    const std::string text = io::read_file(dir + "/out.tle");
    EXPECT_EQ(text.size(), tle::kTleRecordBytes);
    EXPECT_EQ(text.substr(2, 5), "45001");
  }
}

// ---- non-finite numbers at the process boundary ----------------------------
//
// `propagate --days nan` reached the grid's size_t cast of a NaN epoch
// count, and `simulate --cadence nan` the launch plan's: each threw
// std::length_error past main's handler and aborted (exit 134); an infinite
// or huge value asked for the whole address space instead.  Options now
// reject non-finite numbers and main reports any exception as `error:`.
// Each run is bounded by `timeout` and an address-space cap, so a
// regression fails here instead of exhausting the host.

TEST(CliBadNumberTest, NanDaysAndCadenceExitWithAnErrorLine) {
  const ScopedTempDir temp("cd_cli_bad_number");
  const std::string& dir = temp.path();
  io::write_file(dir + "/catalog.tle", tle_days(0, 1));
  const std::string dst = std::string(COSMICDANCE_REPO_ROOT) + "/data/sample/dst.wdc";
  for (const std::string& args :
       {"propagate --tles '" + dir + "/catalog.tle' --threads 1 --days nan",
        "simulate --dst '" + dst + "' --scenario paper --cadence nan --out '" +
            dir + "/out.tle'"}) {
    SCOPED_TRACE(args);
    const CommandResult result =
        run_command("sh -c \"ulimit -v 1000000; exec timeout 60 '" +
                    std::string(COSMICDANCE_CLI_BINARY) + "' " + args + "\"");
    EXPECT_EQ(result.exit_code, 1) << result.output;
    EXPECT_NE(result.output.find("error: option --"), std::string::npos)
        << result.output;
  }
}

}  // namespace
}  // namespace cosmicdance
