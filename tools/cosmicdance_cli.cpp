// cosmicdance — command-line front end, mirroring how the original tool is
// driven: generate/ingest data, list storms, and export figure-ready CSVs.
//
//   cosmicdance gen-dst   --preset paper|superstorm|historical|carrington
//                         --out dst.wdc [--seed N]
//   cosmicdance simulate  --dst dst.wdc --scenario paper|may2024|feb2022|figure3|l1
//                         --out catalog.tle [--per-batch N --cadence D --fleet N --seed N]
//   cosmicdance storms    --dst dst.wdc [--threshold NT] [--csv storms.csv]
//   cosmicdance analyze   --dst dst.wdc --tles catalog.tle --out-dir DIR
//   cosmicdance propagate --tles catalog.tle [--days N --step-hours H --top N]
//   cosmicdance report    --dst dst.wdc --tles catalog.tle
#include <exception>
#include <filesystem>
#include <iostream>

#include "common/error.hpp"
#include "core/export.hpp"
#include "diag/diag.hpp"
#include "core/pipeline.hpp"
#include "core/propagation.hpp"
#include "core/report.hpp"
#include "tle/omm.hpp"
#include "io/args.hpp"
#include "io/file.hpp"
#include "io/table.hpp"
#include "obs/obs.hpp"
#include "simulation/scenario.hpp"
#include "spaceweather/generator.hpp"
#include "spaceweather/wdc.hpp"
#include "stats/descriptive.hpp"

using namespace cosmicdance;

namespace {

int usage() {
  std::cout <<
      "cosmicdance — measuring LEO orbital shifts due to solar radiations\n"
      "\n"
      "subcommands:\n"
      "  gen-dst   --preset paper|superstorm|historical|carrington --out F [--seed N]\n"
      "  simulate  --dst F --scenario paper|may2024|feb2022|figure3|l1 --out F\n"
      "            [--per-batch N] [--cadence DAYS] [--fleet N] [--seed N]\n"
      "  storms    --dst F [--threshold NT] [--csv F]\n"
      "  convert   --tles F --to-omm F | --omm F --to-tles F\n"
      "  analyze   --dst F --tles F --out-dir DIR [--threads N] [--cache-dir DIR]\n"
      "  propagate --tles F [--days N] [--step-hours H] [--top N] [--csv F]\n"
      "            [--threads N]  (batch SGP4: full-state altitude series and\n"
      "            decay-rate estimates for every satellite's latest TLE)\n"
      "  report    --dst F --tles F [--markdown F] [--threads N] [--cache-dir DIR]\n"
      "\n"
      "--threads N: pipeline worker count (0 = all hardware threads,\n"
      "             1 = serial; results are identical either way)\n"
      "--parse-policy strict|tolerant (storms/convert/analyze/report):\n"
      "             strict (default) aborts on the first malformed record;\n"
      "             tolerant quarantines it, keeps going, and reports\n"
      "--quality-report F: write the ingestion data-quality report\n"
      "             (.json = full report, otherwise quarantine CSV)\n"
      "--metrics F (analyze/report): write run metrics — phase wall times,\n"
      "             work counters, gauges (.csv = flat rows, else JSON);\n"
      "             work counters are bit-identical at every --threads value\n"
      "--trace F (analyze/report): write a Chrome trace_event JSON timeline\n"
      "             (open in about:tracing or ui.perfetto.dev)\n"
      "--cache-dir DIR (analyze/report): binary snapshot cache of parsed\n"
      "             inputs; a warm run with unchanged inputs skips text\n"
      "             parsing, and inputs that only grew by appended records\n"
      "             reparse just the tail and rewrite the snapshot; results\n"
      "             are bit-identical either way\n";
  return 2;
}

std::string require(const io::ArgParser& args, const std::string& name) {
  const auto value = args.option(name);
  if (!value.has_value()) {
    throw ParseError("missing required option --" + name);
  }
  return *value;
}

diag::ParsePolicy parse_policy(const io::ArgParser& args) {
  return diag::parse_policy_from_string(
      args.option_or("parse-policy", "strict"));
}

/// Honour --quality-report and print a summary whenever ingestion had
/// anything to say (always under the tolerant policy, so a clean run is
/// visibly clean).
void emit_quality_report(const io::ArgParser& args,
                         const diag::DataQualityReport& report) {
  if (const auto path = args.option("quality-report")) {
    if (path->size() >= 5 && path->compare(path->size() - 5, 5, ".json") == 0) {
      io::write_file(*path, report.to_json());
    } else {
      io::write_csv_file(*path, report.quarantine_rows());
    }
    std::cout << "wrote quality report to " << *path << "\n";
  }
  if (report.policy == diag::ParsePolicy::kTolerant ||
      report.total_quarantined() > 0 || report.total_repaired() > 0) {
    report.print(std::cout);
  }
}

int cmd_gen_dst(const io::ArgParser& args) {
  args.check_known({"preset", "out", "seed"});
  const std::string preset = args.option_or("preset", "paper");
  spaceweather::DstGeneratorConfig config;
  if (preset == "paper") {
    config = spaceweather::DstGenerator::paper_window_2020_2024();
  } else if (preset == "superstorm") {
    config = spaceweather::DstGenerator::with_may_2024_superstorm();
  } else if (preset == "historical") {
    config = spaceweather::DstGenerator::historical_50_years();
  } else if (preset == "carrington") {
    config = spaceweather::DstGenerator::carrington_what_if();
  } else {
    throw ParseError("unknown preset: " + preset);
  }
  config.seed = static_cast<std::uint64_t>(
      args.integer_or("seed", static_cast<long>(config.seed)));
  const auto dst = spaceweather::DstGenerator(config).generate();
  spaceweather::write_wdc_file(require(args, "out"), dst);
  std::cout << "wrote " << dst.size() << " hourly Dst records ("
            << dst.start_datetime().to_string() << " ...) to "
            << require(args, "out") << "\n";
  return 0;
}

int cmd_simulate(const io::ArgParser& args) {
  args.check_known(
      {"dst", "scenario", "out", "per-batch", "cadence", "fleet", "seed"});
  const auto dst = spaceweather::read_wdc_file(require(args, "dst"));
  const std::string name = args.option_or("scenario", "paper");
  const auto seed = static_cast<std::uint64_t>(args.integer_or("seed", 7));

  simulation::ConstellationConfig config;
  if (name == "paper") {
    config = simulation::scenario::paper_window(
        &dst, static_cast<int>(args.integer_or("per-batch", 8)),
        args.number_or("cadence", 12.0), seed);
  } else if (name == "may2024") {
    config = simulation::scenario::may_2024(
        &dst, static_cast<int>(args.integer_or("fleet", 1500)), seed);
  } else if (name == "feb2022") {
    config = simulation::scenario::feb_2022(&dst, seed);
  } else if (name == "figure3") {
    config = simulation::scenario::figure3(&dst, seed);
  } else if (name == "l1") {
    config = simulation::scenario::launch_l1(&dst, seed);
  } else {
    throw ParseError("unknown scenario: " + name);
  }

  auto result = simulation::ConstellationSimulator(config).run(0);
  io::write_file(require(args, "out"), result.catalog.to_text(0));
  std::cout << "simulated " << result.launched << " satellites; wrote "
            << result.catalog.record_count() << " TLEs for "
            << result.catalog.satellite_count() << " satellites to "
            << require(args, "out") << "\n"
            << "failures: " << result.failures.size()
            << ", reentered: " << result.reentered << "\n";
  return 0;
}

int cmd_storms(const io::ArgParser& args) {
  args.check_known({"dst", "threshold", "csv", "parse-policy", "quality-report"});
  diag::ParseLog log(parse_policy(args));
  const auto dst = spaceweather::read_wdc_file(require(args, "dst"), &log);
  emit_quality_report(args, log.report());
  const double threshold_nt =
      args.number_or("threshold", spaceweather::kMinorThresholdNt);
  const auto storms = spaceweather::StormDetector(threshold_nt).detect(dst);

  if (const auto csv_path = args.option("csv")) {
    io::write_csv_file(*csv_path, core::storms_csv(storms));
    std::cout << "wrote " << storms.size() << " storms to " << *csv_path << "\n";
    return 0;
  }
  io::TablePrinter table({"onset", "peak nT", "category", "hours"});
  for (const auto& storm : storms) {
    table.add_row({storm.start_datetime().to_string().substr(0, 16),
                   io::TablePrinter::num(storm.peak_dst_nt, 1),
                   spaceweather::to_string(storm.category),
                   std::to_string(storm.duration_hours())});
  }
  table.print(std::cout);
  return 0;
}

/// True when the command line asks for any observability output; the
/// registry is only wired into the pipeline when something will read it.
bool wants_observability(const io::ArgParser& args) {
  return args.option("metrics").has_value() || args.option("trace").has_value();
}

/// Honour --metrics (.csv = flat rows, otherwise JSON) and --trace
/// (Chrome trace_event JSON).
void emit_observability(const io::ArgParser& args, const obs::Metrics& metrics) {
  if (const auto path = args.option("metrics")) {
    const obs::MetricsReport report = metrics.snapshot();
    if (path->size() >= 4 && path->compare(path->size() - 4, 4, ".csv") == 0) {
      io::write_csv_file(*path, report.metric_rows());
    } else {
      io::write_file(*path, report.to_json());
    }
    std::cout << "wrote metrics to " << *path << "\n";
  }
  if (const auto path = args.option("trace")) {
    io::write_file(*path, metrics.trace_json());
    std::cout << "wrote trace to " << *path << "\n";
  }
}

/// End a pipeline command: join the pipeline's background cache write
/// inside the phase `save_join`, destroy the pipeline inside the phase
/// `teardown`, then honour --metrics/--trace.  The files show the write's
/// snapshot.save phase and snapshot.written counter, the wait and the
/// teardown.  Without observability the pipeline dies on return.
void finish_observability(const io::ArgParser& args,
                          core::CosmicDance pipeline, obs::Metrics* metrics,
                          const char* save_join, const char* teardown) {
  {
    const obs::ScopedPhase join(metrics, save_join);
    pipeline.wait_for_snapshot_save();
  }
  if (metrics == nullptr) return;
  {
    const obs::ScopedPhase phase(metrics, teardown);
    const core::CosmicDance doomed = std::move(pipeline);
  }
  emit_observability(args, *metrics);
}

core::CosmicDance load_pipeline(const io::ArgParser& args,
                                obs::Metrics* metrics = nullptr) {
  core::PipelineConfig config;
  config.num_threads =
      static_cast<int>(args.nonnegative_integer_or("threads", 0));
  config.parse_policy = parse_policy(args);
  config.metrics = metrics;
  config.cache_dir = args.option_or("cache-dir", "");
  core::CosmicDance pipeline = core::CosmicDance::from_files(
      require(args, "dst"), require(args, "tles"), config);
  emit_quality_report(args, pipeline.quality_report());
  return pipeline;
}

int cmd_analyze(const io::ArgParser& args) {
  args.check_known({"dst", "tles", "out-dir", "threads", "parse-policy",
                    "quality-report", "metrics", "trace", "cache-dir"});
  const std::string out_dir = require(args, "out-dir");
  obs::Metrics observability;
  obs::Metrics* metrics = wants_observability(args) ? &observability : nullptr;
  core::CosmicDance pipeline = load_pipeline(args, metrics);
  // Only once the options and inputs have checked out, so a rejected run
  // leaves nothing behind.
  std::filesystem::create_directories(out_dir);
  auto path = [&](const char* name) { return out_dir + "/" + name; };

  {
    // Everything after the pipeline build: the figure samples, their ECDFs
    // and the CSV writes.
    const obs::ScopedPhase phase(metrics, "analyze.export");
    // Fig 1: intensity CDF.  Each figure is written only when it has
    // samples, so a run over inputs without a usable record still ends.
    if (!pipeline.dst().values().empty()) {
      std::vector<double> values(pipeline.dst().values().begin(),
                                 pipeline.dst().values().end());
      io::write_csv_file(path("fig01_intensity_cdf.csv"),
                         core::ecdf_csv(stats::Ecdf(values), "dst_nt"));
    }
    // Fig 2 raw material + storm catalog.
    io::write_csv_file(path("storms.csv"), core::storms_csv(pipeline.storms()));
    // Fig 5(a)/(b)/(c).
    const double p80 = pipeline.dst_threshold_at_percentile(80.0);
    const double p95 = pipeline.dst_threshold_at_percentile(95.0);
    const auto quiet = pipeline.altitude_changes_for_quiet(p80, 30);
    if (!quiet.empty()) {
      io::write_csv_file(path("fig05a_quiet_altitude_change_cdf.csv"),
                         core::ecdf_csv(stats::Ecdf(quiet), "alt_change_km"));
    }
    // One scan of the storm cells yields both (b) and (c).
    const core::ChangeSamples storm = pipeline.changes_for_storms(p95);
    if (!storm.altitude_km.empty()) {
      io::write_csv_file(
          path("fig05b_storm_altitude_change_cdf.csv"),
          core::ecdf_csv(stats::Ecdf(storm.altitude_km), "alt_change_km"));
    }
    if (!storm.drag_ratio.empty()) {
      io::write_csv_file(
          path("fig05c_drag_change_cdf.csv"),
          core::ecdf_csv(stats::Ecdf(storm.drag_ratio), "bstar_ratio"));
    }
    // Fig 10 raw/cleaned altitude CDFs: one altitude per TLE, samples large
    // enough that only the printed order statistics are selected, in
    // parallel, instead of sorting them.  Selection reads only the
    // multiset, so (b) is the buffer's prefix and (a) the whole buffer.
    const int threads = pipeline.config().num_threads;
    const core::Fig10Samples altitudes = core::fig10_samples(
        pipeline.catalog(), pipeline.tracks(), threads, metrics);
    const obs::ScopedPhase fig10(metrics, "analyze.fig10_ecdf");
    const auto write_fig10 = [&](const char* name,
                                 std::span<const double> sample) {
      if (sample.empty()) return;
      io::write_csv_file(
          path(name),
          core::ecdf_csv(
              stats::ecdf_points(sample, core::kEcdfCsvPoints, threads),
              "altitude_km"));
    };
    write_fig10("fig10a_raw_altitude_cdf.csv", altitudes.raw());
    write_fig10("fig10b_clean_altitude_cdf.csv", altitudes.clean());
  }

  std::cout << "analysis CSVs written to " << out_dir << "\n";
  finish_observability(args, std::move(pipeline), metrics, "analyze.save_join",
                       "analyze.teardown");
  return 0;
}

int cmd_convert(const io::ArgParser& args) {
  args.check_known(
      {"tles", "to-omm", "omm", "to-tles", "parse-policy", "quality-report"});
  diag::ParseLog log(parse_policy(args));
  if (const auto out = args.option("to-omm")) {
    tle::TleCatalog catalog;
    catalog.add_from_file(require(args, "tles"), tle::IngestOptions{&log, 0, {}});
    emit_quality_report(args, log.report());
    io::write_file(*out, tle::catalog_to_omm_kvn(catalog));
    std::cout << "wrote " << catalog.record_count() << " OMM messages to "
              << *out << "\n";
    return 0;
  }
  if (const auto out = args.option("to-tles")) {
    tle::TleCatalog catalog;
    const std::string omm_path = require(args, "omm");
    static_cast<void>(tle::catalog_add_from_omm_kvn(
        catalog, io::read_file(omm_path), &log, omm_path));
    emit_quality_report(args, log.report());
    io::write_file(*out, catalog.to_text(0));
    std::cout << "wrote " << catalog.record_count() << " TLEs to " << *out
              << "\n";
    return 0;
  }
  throw ParseError("convert needs --to-omm or --to-tles");
}

int cmd_propagate(const io::ArgParser& args) {
  args.check_known({"tles", "days", "step-hours", "top", "csv", "threads",
                    "parse-policy", "quality-report", "metrics", "trace"});
  obs::Metrics observability;
  obs::Metrics* metrics = wants_observability(args) ? &observability : nullptr;

  diag::ParseLog log(parse_policy(args));
  tle::TleCatalog catalog;
  const int threads =
      static_cast<int>(args.nonnegative_integer_or("threads", 0));
  catalog.add_from_file(require(args, "tles"),
                        tle::IngestOptions{&log, threads, {}, metrics});
  emit_quality_report(args, log.report());

  if (catalog.empty()) {
    throw ValidationError("propagation needs a non-empty catalog");
  }
  core::PropagationOptions options;
  // Every satellite propagates forward from the latest TLE epoch.
  options.start_jd = catalog.last_epoch_jd();
  options.end_jd = options.start_jd + args.number_or("days", 30.0);
  options.step_hours = args.number_or("step-hours", 24.0);
  options.num_threads = threads;
  options.metrics = metrics;
  const core::PropagationReport report =
      core::propagate_catalog(catalog, options);

  if (const auto csv_path = args.option("csv")) {
    std::vector<io::CsvRow> rows;
    rows.push_back({"catalog_number", "tle_epoch_jd", "deep_space",
                    "valid_samples", "decay_rate_km_per_day",
                    "first_altitude_km", "last_altitude_km", "decayed"});
    for (const auto& series : report.series) {
      rows.push_back({std::to_string(series.catalog_number),
                      io::TablePrinter::num(series.tle_epoch_jd, 6),
                      series.deep_space ? "1" : "0",
                      std::to_string(series.valid_samples),
                      io::TablePrinter::num(series.decay_rate_km_per_day, 6),
                      io::TablePrinter::num(series.first_altitude_km, 3),
                      io::TablePrinter::num(series.last_altitude_km, 3),
                      series.decayed ? "1" : "0"});
    }
    io::write_csv_file(*csv_path, rows);
    std::cout << "wrote " << report.series.size()
              << " propagated satellites to " << *csv_path << "\n";
  }

  io::print_heading(std::cout, "Fleet propagation");
  std::cout << "  satellites: " << report.series.size() << "   grid epochs: "
            << report.epochs_jd.size() << "   span: "
            << io::TablePrinter::num(report.epochs_jd.empty()
                                         ? 0.0
                                         : report.epochs_jd.back() -
                                               report.epochs_jd.front(),
                                     1)
            << " days\n"
            << "  cells ok: " << report.ok_cells << "   decayed: "
            << report.decayed_cells << "   errors: " << report.error_cells
            << "   init failures: " << report.init_failures.size() << "\n";

  // Fastest-decaying satellites — the reentry-risk shortlist.
  const auto top = static_cast<std::size_t>(
      args.nonnegative_integer_or("top", 10));
  io::TablePrinter table({"catalog", "km/day", "first km", "last km", "reentry"});
  for (const auto* ranked : core::fastest_decaying(report, top)) {
    const auto& series = *ranked;
    table.add_row({std::to_string(series.catalog_number),
                   io::TablePrinter::num(series.decay_rate_km_per_day, 3),
                   io::TablePrinter::num(series.first_altitude_km, 1),
                   io::TablePrinter::num(series.last_altitude_km, 1),
                   series.decayed ? "yes" : "no"});
  }
  table.print(std::cout);
  if (metrics != nullptr) emit_observability(args, *metrics);
  return 0;
}

int cmd_report(const io::ArgParser& args) {
  args.check_known({"dst", "tles", "markdown", "threads", "parse-policy", "cache-dir",
                    "quality-report", "metrics", "trace"});
  obs::Metrics observability;
  obs::Metrics* metrics = wants_observability(args) ? &observability : nullptr;
  core::CosmicDance pipeline = load_pipeline(args, metrics);
  if (const auto out = args.option("markdown")) {
    core::write_markdown_report(pipeline, *out);
    std::cout << "wrote markdown report to " << *out << "\n";
    finish_observability(args, std::move(pipeline), metrics,
                         "report.save_join", "report.teardown");
    return 0;
  }

  io::print_heading(std::cout, "Dataset");
  std::cout << "  Dst hours: " << pipeline.dst().size() << " from "
            << pipeline.dst().start_datetime().to_string() << "\n"
            << "  satellites: " << pipeline.tracks().size() << "   TLEs: "
            << pipeline.catalog().record_count() << "\n";

  io::print_heading(std::cout, "Solar activity");
  const auto hours = spaceweather::StormDetector::category_hours(pipeline.dst());
  for (const auto& [category, count] : hours) {
    std::cout << "  " << spaceweather::to_string(category) << " hours: " << count
              << "\n";
  }
  std::cout << "  99th-ptile intensity: "
            << pipeline.dst_threshold_at_percentile(99.0) << " nT\n";

  io::print_heading(std::cout, "Happens-closely-after impact");
  const double p95 = pipeline.dst_threshold_at_percentile(95.0);
  const auto changes = pipeline.altitude_changes_for_storms(p95);
  if (!changes.empty()) {
    const auto s = stats::summarize(changes);
    std::cout << "  altitude change after >95th-ptile storms (" << s.count
              << " samples): median " << io::TablePrinter::num(s.median, 2)
              << " km, p95 " << io::TablePrinter::num(s.p95, 2) << " km, max "
              << io::TablePrinter::num(s.max, 1) << " km\n";
  } else {
    std::cout << "  no storm-epoch samples in this dataset\n";
  }
  finish_observability(args, std::move(pipeline), metrics, "report.save_join",
                       "report.teardown");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const io::ArgParser args(argc, argv);
    const std::string& command = args.command();
    if (command == "gen-dst") return cmd_gen_dst(args);
    if (command == "simulate") return cmd_simulate(args);
    if (command == "storms") return cmd_storms(args);
    if (command == "analyze") return cmd_analyze(args);
    if (command == "convert") return cmd_convert(args);
    if (command == "propagate") return cmd_propagate(args);
    if (command == "report") return cmd_report(args);
    return usage();
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
