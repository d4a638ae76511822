// Microbenchmarks over the measurement pipeline's aggregate operations:
// storm segmentation of a 4-year hourly series, the happens-closely-after
// sample extraction, and catalog text ingestion.
//
// Supplies its own main(): after the google-benchmark suite runs, an
// instrumented end-to-end pass (ingest -> build -> clean -> correlate)
// collects cd_obs telemetry and writes a machine-readable record
// (per-phase wall time, work counters, derived throughput) for CI trending:
//
//   ./micro_pipeline [--benchmark_filter=RE] [--bench-out F] [--threads N]
//
// Default output: BENCH_pipeline.json in the working directory.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "core/pipeline.hpp"
#include "spaceweather/storms.hpp"

namespace {

using namespace cosmicdance;

const spaceweather::DstIndex& shared_dst() {
  static const spaceweather::DstIndex dst = bench::paper_dst();
  return dst;
}

const core::CosmicDance& shared_pipeline() {
  static const core::CosmicDance pipeline(
      shared_dst(), bench::paper_catalog(shared_dst(), 2, 30.0));
  return pipeline;
}

void BM_DstGeneration(benchmark::State& state) {
  const auto config = spaceweather::DstGenerator::paper_window_2020_2024();
  for (auto _ : state) {
    benchmark::DoNotOptimize(spaceweather::DstGenerator(config).generate());
  }
}
BENCHMARK(BM_DstGeneration);

void BM_StormDetection(benchmark::State& state) {
  const spaceweather::StormDetector detector;
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.detect(shared_dst()));
  }
}
BENCHMARK(BM_StormDetection);

void BM_IntensityPercentile(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(shared_dst().intensity_percentile(99.0));
  }
}
BENCHMARK(BM_IntensityPercentile);

void BM_AltitudeChangeSamples(benchmark::State& state) {
  const auto& pipeline = shared_pipeline();
  const double p95 = pipeline.dst_threshold_at_percentile(95.0);
  const auto epochs = pipeline.correlator().storm_event_epochs(p95);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline.correlator().altitude_change_samples(
        pipeline.tracks(), epochs));
  }
}
BENCHMARK(BM_AltitudeChangeSamples);

void BM_CatalogIngestText(benchmark::State& state) {
  const std::string text = shared_pipeline().catalog().to_text();
  const auto records = shared_pipeline().catalog().record_count();
  for (auto _ : state) {
    tle::TleCatalog catalog;
    benchmark::DoNotOptimize(catalog.add_from_text(text));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records));
}
BENCHMARK(BM_CatalogIngestText);

void BM_PostEventEnvelope(benchmark::State& state) {
  const auto& pipeline = shared_pipeline();
  const double event_jd =
      timeutil::to_julian(timeutil::make_datetime(2023, 9, 18, 18));
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline.post_event_envelope(
        event_jd, 30, core::EnvelopeSelection::kAffectedHumped));
  }
}
BENCHMARK(BM_PostEventEnvelope);

/// The telemetry pass: one instrumented end-to-end run over the shared
/// bench dataset, exported via bench::write_bench_record.
void run_telemetry_pass(const std::string& out_path, int threads) {
  obs::Metrics metrics;

  // Re-ingest the catalog from text so tle.* counters and the ingest phase
  // are part of the record, then drive every instrumented pipeline stage.
  const auto& dst = shared_dst();
  const std::string text = shared_pipeline().catalog().to_text();
  tle::TleCatalog catalog;
  tle::IngestOptions ingest;
  ingest.num_threads = threads;
  ingest.source = "bench-catalog";
  ingest.metrics = &metrics;
  catalog.add_from_text(text, ingest);

  core::PipelineConfig config;
  config.num_threads = threads;
  config.metrics = &metrics;
  const core::CosmicDance pipeline(dst, std::move(catalog), config);
  const double p95 = pipeline.dst_threshold_at_percentile(95.0);
  const core::ChangeSamples storm = pipeline.changes_for_storms(p95);
  const double event_jd =
      timeutil::to_julian(timeutil::make_datetime(2023, 9, 18, 18));
  const auto envelope = pipeline.post_event_envelope(
      event_jd, 30, core::EnvelopeSelection::kAffectedHumped);

  const obs::MetricsReport report = metrics.snapshot();
  const auto phase_ms = [&](const char* name) {
    const auto it = report.phases.find(name);
    return it != report.phases.end() ? it->second.total_ms : 0.0;
  };
  const auto count = [&](const char* name) {
    const auto it = report.counters.find(name);
    return it != report.counters.end() ? static_cast<double>(it->second) : 0.0;
  };

  std::map<std::string, double> throughput;
  const double ingest_ms = phase_ms("tle.add_from_text");
  if (ingest_ms > 0.0) {
    throughput["tle_records_per_s"] =
        count("tle.records_parsed") / (ingest_ms / 1000.0);
  }
  const double scan_ms = phase_ms("correlator.altitude_scan") +
                         phase_ms("correlator.envelope");
  if (scan_ms > 0.0) {
    throughput["correlator_cells_per_s"] =
        count("correlator.cells") / (scan_ms / 1000.0);
  }
  throughput["correlation_samples"] = static_cast<double>(
      storm.altitude_km.size() + storm.drag_ratio.size());

  bench::write_bench_record(out_path, "micro_pipeline", threads,
                            "paper_catalog(per_batch=2, cadence=30)",
                            throughput, metrics);
}

}  // namespace

int main(int argc, char** argv) {
  // Initialize() consumes the --benchmark_* flags and leaves the rest for
  // the ArgParser below (--benchmark_filter='^$' skips the suite entirely,
  // which CI uses to collect telemetry quickly).
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  const io::ArgParser args(argc, argv);
  run_telemetry_pass(args.option_or("bench-out", "BENCH_pipeline.json"),
                     static_cast<int>(args.nonnegative_integer_or("threads", 0)));
  return 0;
}
