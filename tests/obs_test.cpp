// cd_obs observability tests: registry semantics, the disabled (nullptr)
// path, exporter shapes, and the determinism contract — work counters from
// a full pipeline run must be bit-identical at every thread count, while
// scheduling counters are explicitly allowed to differ (DESIGN.md §11).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "exec/parallel_for.hpp"
#include "io/csv.hpp"
#include "io/file.hpp"
#include "obs/obs.hpp"
#include "serve/json.hpp"
#include "simulation/scenario.hpp"
#include "spaceweather/generator.hpp"
#include "spaceweather/wdc.hpp"
#include "support/make_tle.hpp"
#include "support/temp_dir.hpp"
#include "timeutil/datetime.hpp"
#include "tle/tle.hpp"

namespace cosmicdance::obs {
namespace {

TEST(ObsMetricsTest, CountersGaugesAndPhasesSnapshot) {
  Metrics metrics;
  metrics.counter("work.alpha").add(3);
  metrics.counter("work.alpha").add(2);
  metrics.counter("work.beta").add();
  metrics.sched_counter("exec.sections").add(7);
  metrics.set_gauge("threads", 4.0);
  metrics.set_gauge("threads", 8.0);  // last writer wins
  {
    const ScopedPhase phase(&metrics, "phase.one");
  }
  {
    const ScopedPhase phase(&metrics, "phase.one");
  }

  const MetricsReport report = metrics.snapshot();
  EXPECT_EQ(report.counters.at("work.alpha"), 5u);
  EXPECT_EQ(report.counters.at("work.beta"), 1u);
  EXPECT_EQ(report.counters.count("exec.sections"), 0u);  // segregated
  EXPECT_EQ(report.scheduling.at("exec.sections"), 7u);
  EXPECT_DOUBLE_EQ(report.gauges.at("threads"), 8.0);
  ASSERT_EQ(report.phases.count("phase.one"), 1u);
  EXPECT_EQ(report.phases.at("phase.one").calls, 2u);
  EXPECT_GE(report.phases.at("phase.one").total_ms, 0.0);
}

TEST(ObsMetricsTest, NullRegistryIsANoOpEverywhere) {
  // The disabled path: every helper must tolerate nullptr without touching
  // anything (this is what every instrumented call site relies on).
  const ScopedPhase phase(nullptr, "ignored");
  Counter* counter = counter_or_null(nullptr, "ignored");
  EXPECT_EQ(counter, nullptr);
  bump(counter);
  bump(counter, 100);
}

TEST(ObsMetricsTest, CounterHandlesAreStableAndThreadSafe) {
  Metrics metrics;
  Counter& counter = metrics.counter("work.parallel");
  // Concurrent relaxed adds from pool workers must neither race nor lose
  // increments; the handle stays valid across later registry insertions.
  exec::parallel_for(10000, 8, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) counter.add();
  });
  metrics.counter("work.later").add();  // new node; `counter` must survive
  EXPECT_EQ(counter.value(), 10000u);
  EXPECT_EQ(metrics.snapshot().counters.at("work.parallel"), 10000u);
}

TEST(ObsMetricsTest, JsonExportHasAllSections) {
  Metrics metrics;
  metrics.counter("c.one").add(42);
  metrics.sched_counter("s.one").add(2);
  metrics.set_gauge("g.one", 1.5);
  {
    const ScopedPhase phase(&metrics, "p.one");
  }
  const std::string json = metrics.snapshot().to_json();
  for (const char* needle :
       {"\"counters\"", "\"scheduling\"", "\"gauges\"", "\"phases\"",
        "\"c.one\": 42", "\"s.one\": 2", "\"g.one\"", "\"p.one\"",
        "\"calls\": 1", "\"wall_ms\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << "missing " << needle;
  }
  // Structural sanity: braces balance (cheap well-formedness check without
  // a JSON parser; the tier-1 smoke pass validates with a real one).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(ObsMetricsTest, MetricRowsShape) {
  Metrics metrics;
  metrics.counter("c.one").add(1);
  metrics.sched_counter("s.one").add(2);
  metrics.set_gauge("g.one", 3.0);
  {
    const ScopedPhase phase(&metrics, "p.one");
  }
  const auto rows = metrics.snapshot().metric_rows();
  // Header + counter + sched + gauge + (calls, wall_ms) per phase.
  ASSERT_EQ(rows.size(), 6u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"kind", "name", "value"}));
  for (std::size_t r = 1; r < rows.size(); ++r) {
    ASSERT_EQ(rows[r].size(), 3u) << "row " << r;
  }
  EXPECT_EQ(rows[1][0], "counter");
  EXPECT_EQ(rows[1][1], "c.one");
  EXPECT_EQ(rows[1][2], "1");
}

TEST(ObsMetricsTest, TraceJsonEmitsCompleteEvents) {
  Metrics metrics;
  {
    const ScopedPhase phase(&metrics, "traced.work");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::string trace = metrics.trace_json();
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"traced.work\""), std::string::npos);
  EXPECT_NE(trace.find("\"dur\""), std::string::npos);
}

TEST(ObsMetricsTest, RecordPhaseAccumulatesExternallyTimedIntervals) {
  Metrics metrics;
  const auto begin = std::chrono::steady_clock::now();
  const auto end = begin + std::chrono::milliseconds(5);
  metrics.record_phase("external", begin, end);
  metrics.record_phase("external", begin, end);
  const MetricsReport report = metrics.snapshot();
  EXPECT_EQ(report.phases.at("external").calls, 2u);
  EXPECT_NEAR(report.phases.at("external").total_ms, 10.0, 0.1);
}

TEST(ObsMetricsTest, TraceKeepsTheFirstSpansAndCountsTheRest) {
  // A daemon records spans for its whole life (every envelope_cdf query
  // and every reload), so the trace buffer is capped: the first
  // kMaxTraceSpans stay, later intervals still reach the phase totals, and
  // the drops are a scheduling counter, outside the work-counter contract.
  Metrics metrics;
  const auto begin = std::chrono::steady_clock::now();
  for (int i = 0; i < 70000; ++i) {
    metrics.record_phase("serve.query", begin, begin);
  }
  const MetricsReport report = metrics.snapshot();
  EXPECT_EQ(report.phases.at("serve.query").calls, 70000u);
  EXPECT_EQ(report.scheduling.at("obs.trace_spans_dropped"), 4464u);
  EXPECT_EQ(report.counters.count("obs.trace_spans_dropped"), 0u);

  const std::string trace = metrics.trace_json();
  std::size_t events = 0;
  for (std::size_t at = trace.find("\"ph\": \"X\""); at != std::string::npos;
       at = trace.find("\"ph\": \"X\"", at + 1)) {
    ++events;
  }
  EXPECT_EQ(events, 65536u);
}

// ---- the determinism contract, end to end ---------------------------------

TEST(ObsDeterminismTest, PipelineWorkCountersBitIdenticalAcrossThreadCounts) {
  const auto dst = spaceweather::DstGenerator(
                       spaceweather::DstGenerator::paper_window_2020_2024())
                       .generate();
  const auto catalog =
      simulation::ConstellationSimulator(
          simulation::scenario::paper_window(&dst, 2, 30.0))
          .run()
          .catalog;

  std::vector<MetricsReport> reports;
  for (const int threads : {1, 2, 8}) {
    Metrics metrics;
    core::PipelineConfig config;
    config.num_threads = threads;
    config.metrics = &metrics;
    const core::CosmicDance pipeline(dst, catalog, config);
    const double p95 = pipeline.dst_threshold_at_percentile(95.0);
    static_cast<void>(pipeline.altitude_changes_for_storms(p95));
    static_cast<void>(pipeline.drag_changes_for_storms(p95));
    const auto epochs = pipeline.correlator().storm_event_epochs(p95);
    if (!epochs.empty()) {
      static_cast<void>(pipeline.post_event_envelope(
          epochs.front(), 30, core::EnvelopeSelection::kAll));
    }
    reports.push_back(metrics.snapshot());
  }

  ASSERT_FALSE(reports[0].counters.empty());
  EXPECT_GT(reports[0].counters.at("track.built"), 0u);
  EXPECT_GT(reports[0].counters.at("correlator.cells"), 0u);
  // Work counters: the contract — exact map equality (names AND totals).
  EXPECT_EQ(reports[0].counters, reports[1].counters) << "threads 1 vs 2";
  EXPECT_EQ(reports[0].counters, reports[2].counters) << "threads 1 vs 8";
  // Scheduling counters exist but are outside the contract: the parallel
  // runs must have recorded sections without being compared for equality.
  for (const MetricsReport& report : reports) {
    EXPECT_GT(report.scheduling.at("exec.sections"), 0u);
    EXPECT_GT(report.scheduling.at("exec.chunks"), 0u);
  }
}

TEST(ObsDeterminismTest, DeltaPathCountersArePinnedAndBitIdenticalAcrossThreadCounts) {
  // The incremental-ingestion counters (DESIGN.md §14) are part of the
  // public telemetry surface: tier-1's bench gate and downstream dashboards
  // key on the literal names `ingest.delta_hit` and `ingest.tail_bytes`,
  // and the determinism contract (§11) extends to the delta path — the
  // whole work-counter map from a tail parse must be bit-identical at every
  // thread count.
  const auto record_text = [](int catalog_number, double epoch_offset_days) {
    tle::Tle record;
    record.catalog_number = catalog_number;
    record.international_designator = "20001A";
    record.epoch_jd = timeutil::to_julian(timeutil::make_datetime(2024, 5, 1)) +
                      epoch_offset_days;
    record.bstar = 1.4e-4;
    record.inclination_deg = 53.05;
    record.raan_deg = 120.5;
    record.eccentricity = 0.0002;
    record.arg_perigee_deg = 90.0;
    record.mean_anomaly_deg = 45.0;
    record.mean_motion_revday = 15.05;
    record.element_set_number = 1;
    record.rev_number = 1;
    const tle::TleLines lines = tle::format_tle(record);
    return lines.line1 + "\n" + lines.line2 + "\n";
  };
  std::vector<double> hours;
  for (int h = 0; h < 3 * 24; ++h) hours.push_back(-10.0 - h % 40);
  const std::string wdc_text = spaceweather::to_wdc(
      spaceweather::DstIndex(timeutil::make_datetime(2024, 5, 1), hours));
  std::string seed_tle;
  for (int i = 0; i < 12; ++i) seed_tle += record_text(40001 + i, 0.25 * i);
  std::string tail_tle;
  for (int i = 0; i < 40; ++i) tail_tle += record_text(40001 + i % 12, 30.0 + 0.25 * i);

  std::vector<MetricsReport> reports;
  for (const int threads : {1, 2, 8}) {
    const test_support::ScopedTempDir temp("cd_obs_delta_" +
                                           std::to_string(threads));
    const std::string& dir = temp.path();
    const std::string dst_path = dir + "/dst.wdc";
    const std::string tle_path = dir + "/catalog.tle";
    io::write_file(dst_path, wdc_text);
    io::write_file(tle_path, seed_tle);

    core::PipelineConfig config;
    config.num_threads = threads;
    config.cache_dir = dir + "/cache";
    Metrics cold;
    config.metrics = &cold;
    static_cast<void>(core::CosmicDance::from_files(dst_path, tle_path, config));
    // Hashing the inputs is its own phase on the cold path too.
    EXPECT_EQ(cold.snapshot().phases.count("ingest.fingerprint"), 1u);

    io::append_file(tle_path, tail_tle);
    Metrics metrics;
    config.metrics = &metrics;
    static_cast<void>(core::CosmicDance::from_files(dst_path, tle_path, config));
    reports.push_back(metrics.snapshot());
  }

  // Name pinning: these exact strings are load-bearing.
  EXPECT_EQ(reports[0].counters.at("ingest.delta_hit"), 1u);
  EXPECT_EQ(reports[0].counters.at("ingest.tail_bytes"), tail_tle.size());
  EXPECT_EQ(reports[0].counters.at("snapshot.written"), 1u);
  EXPECT_EQ(reports[0].phases.count("ingest.fingerprint"), 1u);
  EXPECT_EQ(reports[0].counters.at("tle.records_parsed"), 40u);
  EXPECT_EQ(reports[0].counters.count("ingest.cache_hit"), 0u);
  // Bit-identity of the whole work-counter map across thread counts.
  EXPECT_EQ(reports[0].counters, reports[1].counters) << "threads 1 vs 2";
  EXPECT_EQ(reports[0].counters, reports[2].counters) << "threads 1 vs 8";
}

TEST(ObsDeterminismTest, TextParsePhasesAndCountersArePinnedAcrossThreadCounts) {
  // A cold run times the TLE parse's three passes as phases inside
  // tle.add_from_text, and its tle.* counters keep their values at every
  // thread count: 33 records paired (two repeats and one bad checksum
  // among them) and one lone line 2 rejected as structural.
  std::string tle_text;
  for (int i = 0; i < 30; ++i) {
    const tle::TleLines lines =
        tle::format_tle(test_support::make_tle(40001 + i % 6, 0.25 * i));
    std::string record = lines.line1 + "\n" + lines.line2 + "\n";
    tle_text += record;
    if (i == 7 || i == 19) tle_text += record;  // repeats: duplicates dropped
    if (i == 11) {
      record[68] = record[68] == '0' ? '1' : '0';  // a bad line-1 checksum
      tle_text += record;
    }
    if (i == 23) tle_text += lines.line2 + "\n";  // line 2 without line 1
  }
  std::vector<double> hours;
  for (int h = 0; h < 3 * 24; ++h) hours.push_back(-10.0 - h % 40);
  const std::string wdc_text = spaceweather::to_wdc(
      spaceweather::DstIndex(timeutil::make_datetime(2024, 5, 1), hours));

  std::vector<MetricsReport> reports;
  for (const int threads : {1, 8}) {
    const test_support::ScopedTempDir temp("cd_obs_parse_" + std::to_string(threads));
    const std::string dst_path = temp.path() + "/dst.wdc";
    const std::string tle_path = temp.path() + "/catalog.tle";
    io::write_file(dst_path, wdc_text);
    io::write_file(tle_path, tle_text);
    core::PipelineConfig config;
    config.num_threads = threads;
    config.cache_dir = temp.path() + "/cache";
    config.parse_policy = diag::ParsePolicy::kTolerant;
    Metrics metrics;
    config.metrics = &metrics;
    static_cast<void>(core::CosmicDance::from_files(dst_path, tle_path, config));
    reports.push_back(metrics.snapshot());
  }

  for (const MetricsReport& report : reports) {
    double passes_ms = 0.0;
    for (const char* phase : {"tle.scan", "tle.report", "tle.commit"}) {
      ASSERT_EQ(report.phases.count(phase), 1u) << phase;
      EXPECT_EQ(report.phases.at(phase).calls, 1u) << phase;
      passes_ms += report.phases.at(phase).total_ms;
    }
    EXPECT_LE(passes_ms, report.phases.at("tle.add_from_text").total_ms + 1e-6);
    const std::map<std::string, std::uint64_t> pinned = {
        {"tle.records_paired", 33},  {"tle.structural_rejects", 1},
        {"tle.records_parsed", 32},  {"tle.parse_rejects", 1},
        {"tle.records_added", 30},   {"tle.duplicates_dropped", 2}};
    for (const auto& [name, value] : pinned) {
      ASSERT_EQ(report.counters.count(name), 1u) << name;
      EXPECT_EQ(report.counters.at(name), value) << name;
    }
  }
  EXPECT_EQ(reports[0].counters, reports[1].counters) << "threads 1 vs 8";
}

// --- exporter escaping: hostile metric names must survive every format ------

TEST(ObsExporterEscapingTest, ToJsonSurvivesHostileNames) {
  const std::string quote_name = "he said \"hi\"";
  const std::string slash_name = "back\\slash\\";
  const std::string ctrl_name = "ctrl\x01\x02 bell\x07";
  const std::string multiline_name = "line\nbreak\rreturn\ttab";

  Metrics metrics;
  metrics.counter(quote_name).add(1);
  metrics.counter(slash_name).add(2);
  metrics.set_gauge(ctrl_name, 4.5);
  const auto begin = std::chrono::steady_clock::now();
  metrics.record_phase(multiline_name, begin,
                       begin + std::chrono::milliseconds(1));

  const std::string json = metrics.snapshot().to_json();
  const auto doc = serve::parse_json(json);
  ASSERT_TRUE(doc.has_value()) << "to_json emitted invalid JSON:\n" << json;

  const serve::JsonValue* counters = doc->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_NE(counters->find(quote_name), nullptr) << "quote name lost";
  EXPECT_NE(counters->find(slash_name), nullptr) << "backslash name lost";
  const serve::JsonValue* gauges = doc->find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_NE(gauges->find(ctrl_name), nullptr) << "control-char name lost";
  const serve::JsonValue* phases = doc->find("phases");
  ASSERT_NE(phases, nullptr);
  EXPECT_NE(phases->find(multiline_name), nullptr) << "newline name lost";
}

TEST(ObsExporterEscapingTest, TraceJsonSurvivesHostileSpanNames) {
  const std::string hostile = "span \"x\"\\\n\x1f end";
  Metrics metrics;
  const auto begin = std::chrono::steady_clock::now();
  metrics.record_phase(hostile, begin, begin + std::chrono::milliseconds(2));

  const std::string trace = metrics.trace_json();
  const auto doc = serve::parse_json(trace);
  ASSERT_TRUE(doc.has_value()) << "trace_json emitted invalid JSON:\n"
                               << trace;
  const serve::JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, serve::JsonValue::Kind::kArray);
  bool found = false;
  for (const serve::JsonValue& event : events->items) {
    const serve::JsonValue* name = event.find("name");
    if (name != nullptr && name->text == hostile) found = true;
  }
  EXPECT_TRUE(found) << "hostile span name did not round-trip";
}

TEST(ObsExporterEscapingTest, MetricRowsCsvRoundTripSurvivesHostileNames) {
  MetricsReport report;
  report.counters["with,comma"] = 1;
  report.counters["with \"quote\""] = 2;
  report.counters["with\nnewline"] = 3;
  // The CR cases: a CR must be quoted like a LF, or a reader that
  // normalises CRLF line ends would drop it.
  report.counters["with\rreturn"] = 4;
  report.counters["trailing return\r"] = 5;
  report.counters["crlf\r\ninside"] = 6;
  report.gauges["plain"] = 7.0;

  std::string text;
  for (const io::CsvRow& row : report.metric_rows()) {
    text += io::format_csv_row(row) + "\n";
  }
  EXPECT_EQ(text,
            "kind,name,value\n"
            "counter,\"crlf\r\ninside\",6\n"
            "counter,\"trailing return\r\",5\n"
            "counter,\"with\nnewline\",3\n"
            "counter,\"with\rreturn\",4\n"
            "counter,\"with \"\"quote\"\"\",2\n"
            "counter,\"with,comma\",1\n"
            "gauge,plain,7\n");
}

}  // namespace
}  // namespace cosmicdance::obs
