// Microbenchmarks over the ingestion fast path (DESIGN.md §13): the legacy
// slurp-into-string parse, the zero-copy mmap parse, and the binary snapshot
// load that skips text parsing entirely.  The three rates printed side by
// side are the cold/warm start story in one screen.
//
// Supplies its own main(): after the google-benchmark suite runs, an
// instrumented cold → warm → append → delta-warm → Dst-append sequence of
// CosmicDance::from_files passes collects cd_obs telemetry and writes a
// machine-readable record.  The warm pass must hit the snapshot cache, the
// delta-warm pass — after a few records are appended — must parse only
// the tail (`ingest.delta_hit` == 1 with `delta_tail_fraction` well under
// 5%) and rewrite the base (`snapshot.written` == 2 with the cold pass's),
// and the pass after a Dst-only append must hit the cache again (the
// snapshot holds only the TLE parse), so `ingest.cache_hit` == 2.  The
// gated cold-parse and warm-start rates are each the best of three reps
// spread over the pass, every rep's rate kept under the record's `reps`.
// The record also times the catalog's way back to text
// (`tle_format_records_per_s`, with `format_threads_identical` comparing it
// to the serial bytes) and the constellation simulator that generates it
// (`simulate_records_per_s`, with `simulate_threads_identical` comparing
// its catalog and failures to the serial run's).  Tier-1 asserts on all of
// these, and
// tools/bench_compare.py diffs the throughput keys between runs:
//
//   ./micro_ingest [--benchmark_filter=RE] [--bench-out F] [--threads N]
//
// Default output: BENCH_ingest.json in the working directory.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/pipeline.hpp"
#include "io/snapshot.hpp"
#include "simulation/scenario.hpp"
#include "spaceweather/wdc.hpp"
#include "timeutil/datetime.hpp"
#include "tle/catalog.hpp"
#include "tle/tle.hpp"

namespace {

using namespace cosmicdance;

/// The bench dataset written to disk once: the paper-window Dst series in
/// WDC format plus a bench-scale catalog in TLE text, the same shapes the
/// CLI ingests.  Lives in this run's own directory under the system temp
/// directory, removed at exit.
struct BenchDataset {
  std::string dir;
  std::string dst_path;
  std::string tle_path;
  std::size_t records = 0;
};

const BenchDataset& shared_dataset() {
  static const BenchDataset dataset = [] {
    static const bench::RunDir run_dir("cd_micro_ingest");
    BenchDataset built;
    built.dir = run_dir.path();
    const spaceweather::DstIndex dst = bench::paper_dst();
    const tle::TleCatalog catalog = bench::paper_catalog(dst, 2, 30.0);
    built.records = catalog.record_count();
    built.dst_path = built.dir + "/dst.wdc";
    built.tle_path = built.dir + "/catalog.tle";
    spaceweather::write_wdc_file(built.dst_path, dst);
    io::write_file(built.tle_path, catalog.to_text());
    return built;
  }();
  return dataset;
}

/// A snapshot of the bench dataset, written once through the public cache
/// path so BM_SnapshotLoad measures exactly what a warm CLI run reads.
const std::string& shared_snapshot_path() {
  static const std::string path = [] {
    const BenchDataset& data = shared_dataset();
    const std::string cache_dir = data.dir + "/bench_cache";
    std::filesystem::remove_all(cache_dir);
    core::PipelineConfig config;
    config.num_threads = 1;
    config.cache_dir = cache_dir;
    const core::CosmicDance pipeline =
        core::CosmicDance::from_files(data.dst_path, data.tle_path, config);
    benchmark::DoNotOptimize(pipeline.catalog().record_count());
    return io::snapshot_cache_path(cache_dir, data.tle_path);
  }();
  return path;
}

/// The pre-PR shape: read the whole file into an owning std::string, then
/// parse.  Kept as the baseline the zero-copy numbers are judged against.
void BM_ColdParseReadFile(benchmark::State& state) {
  const BenchDataset& data = shared_dataset();
  for (auto _ : state) {
    const std::string text = io::read_file(data.tle_path);
    tle::TleCatalog catalog;
    benchmark::DoNotOptimize(catalog.add_from_text(text));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.records));
}
BENCHMARK(BM_ColdParseReadFile);

/// The fast path: mmap the file and parse string_view slices in place.
void BM_ZeroCopyMmapParse(benchmark::State& state) {
  const BenchDataset& data = shared_dataset();
  for (auto _ : state) {
    const io::MappedFile mapped(data.tle_path);
    tle::TleCatalog catalog;
    benchmark::DoNotOptimize(catalog.add_from_text(mapped.view()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.records));
}
BENCHMARK(BM_ZeroCopyMmapParse);

/// The warm path: deserialise the binary snapshot, no text parsing at all.
void BM_SnapshotLoad(benchmark::State& state) {
  const BenchDataset& data = shared_dataset();
  const std::string& path = shared_snapshot_path();
  for (auto _ : state) {
    std::optional<io::SnapshotData> snapshot;
    if (const auto file = io::open_snapshot(path, diag::ParsePolicy::kStrict)) {
      snapshot = io::load_snapshot(*file);
    }
    benchmark::DoNotOptimize(snapshot);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.records));
}
BENCHMARK(BM_SnapshotLoad);

/// A handful of fresh TLE records to append to the telemetry dataset —
/// catalog numbers far above the simulated constellation's so the delta
/// pass genuinely extends the catalog instead of dropping duplicates.
std::string appended_tle_tail() {
  std::string tail;
  for (int i = 0; i < 4; ++i) {
    tle::Tle record;
    record.catalog_number = 90001 + i;
    record.international_designator = "24999A";
    record.epoch_jd =
        timeutil::to_julian(timeutil::make_datetime(2024, 4, 1)) + 0.25 * i;
    record.bstar = 1.0e-4;
    record.inclination_deg = 53.0;
    record.raan_deg = 45.0;
    record.eccentricity = 0.0003;
    record.arg_perigee_deg = 10.0;
    record.mean_anomaly_deg = 20.0;
    record.mean_motion_revday = 15.1;
    record.element_set_number = 1;
    record.rev_number = 1;
    const tle::TleLines lines = tle::format_tle(record);
    tail += lines.line1 + "\n" + lines.line2 + "\n";
  }
  return tail;
}

/// One quiet WDC day record for the UT day after `dst`'s last one.
std::string appended_wdc_day(const spaceweather::DstIndex& dst) {
  const timeutil::HourIndex last = dst.end_hour() - 1;
  const timeutil::HourIndex next_day = last - ((last % 24) + 24) % 24 + 24;
  return spaceweather::to_wdc(
      spaceweather::DstIndex(next_day, std::vector<double>(24, -20.0)));
}

/// The telemetry pass: cold → warm → append → delta-warm → Dst-append
/// from_files runs against a fresh cache directory, sharing one metrics
/// registry.  The cold run parses text and writes the snapshot; the warm
/// run must load it; the delta-warm run, after a few records are appended,
/// must parse only the tail (ingest.delta_hit == 1, with throughput key
/// `delta_tail_fraction` ≪ 1) and rewrite the base, so the pass writes two
/// snapshots (snapshot.written == 2); and after one Dst day is appended the
/// last run must hit the TLE snapshot again (ingest.cache_hit == 2) — the
/// counters tier-1 asserts on.
void run_telemetry_pass(const std::string& out_path, int threads) {
  const BenchDataset& data = shared_dataset();
  const spaceweather::DstIndex dst = bench::paper_dst();
  obs::Metrics metrics;

  // Private copies of the inputs: the delta leg appends to them, and the
  // google-benchmark fixtures above must keep seeing the pristine files.
  const std::string dst_path = data.dir + "/telemetry_dst.wdc";
  const std::string tle_path = data.dir + "/telemetry_catalog.tle";
  io::write_file(dst_path, io::read_file(data.dst_path));
  io::write_file(tle_path, io::read_file(data.tle_path));

  core::PipelineConfig config;
  config.num_threads = threads;
  config.metrics = &metrics;
  config.cache_dir = data.dir + "/telemetry_cache";
  std::filesystem::remove_all(config.cache_dir);

  // The three pipelines live only in this scope: the timed reps below run
  // after they are gone, not in the heap they hold, and only the count the
  // record needs outlives them.
  const std::string tail = appended_tle_tail();
  std::size_t delta_appended_records = 0;
  {
    core::CosmicDance cold =
        core::CosmicDance::from_files(dst_path, tle_path, config);
    // The cold pass writes its snapshot on a background thread; join it so
    // the warm pass below is guaranteed to find the cache populated.
    cold.wait_for_snapshot_save();
    const core::CosmicDance warm =
        core::CosmicDance::from_files(dst_path, tle_path, config);

    io::append_file(tle_path, tail);
    core::CosmicDance delta_warm =
        core::CosmicDance::from_files(dst_path, tle_path, config);
    // The append rewrites the base in the background too; join it so the
    // exact-hit warm start below finds the grown base and the record
    // counts both writes.
    delta_warm.wait_for_snapshot_save();
    delta_appended_records = delta_warm.catalog().record_count() -
                             warm.catalog().record_count();

    // A Dst-only change leaves the TLE snapshot exact: every run parses
    // the Dst itself, so this run hits the cache and writes nothing.
    io::append_file(dst_path, appended_wdc_day(dst));
    static_cast<void>(
        core::CosmicDance::from_files(dst_path, tle_path, config));
  }
  const double tle_bytes =
      static_cast<double>(std::filesystem::file_size(tle_path));

  // The two headline rates are tier-1-gated (cold ≥ 2x its PR 9 baseline,
  // warm start ≥ 3x cold), so they come from the *fastest* of three
  // dedicated repetitions rather than the single instrumented pass above:
  // on a busy CI box one wall-clock sample swings by tens of percent, and
  // min-of-reps is the standard way to estimate the machine's actual
  // capability.  The reps of each are spread over the pass — one here,
  // one after the simulator leg, one at the end — so a slow phase of the
  // process (the first run after an idle pause has run every phase 2–5x
  // slower) cannot own all three.  Every rep's rate goes into the record.
  // The phase timings in the metrics dump still describe the single
  // cold -> warm -> delta sequence.
  const auto seconds_of = [](auto&& run) {
    const auto start = std::chrono::steady_clock::now();
    run();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    return elapsed.count();
  };
  const auto best_seconds = [&](auto&& run) {
    double best = seconds_of(run);
    for (int rep = 1; rep < 3; ++rep) best = std::min(best, seconds_of(run));
    return best;
  };

  // Each rep times its datasets' way in and their destruction, as a run
  // pays both.
  const io::MappedFile tle_mapped(data.tle_path);
  const auto cold_rep = [&] {
    std::size_t records = 0;
    const double seconds = seconds_of([&] {
      diag::ParseLog rep_log(config.parse_policy);
      tle::TleCatalog rep_catalog;
      tle::IngestOptions options;
      options.log = &rep_log;
      options.num_threads = threads;
      rep_catalog.add_from_text(tle_mapped.view(), options);
      records = rep_catalog.record_count();
    });
    return static_cast<double>(records) / seconds;
  };
  // The warm-start rate: what an exact-hit run pays before it holds its
  // datasets, timed the way from_files runs it — the recorded state, the
  // fingerprint that proves the TLE input unchanged, then the snapshot
  // load from the same mapping.  The input is mapped once, outside the
  // timed region, as for the cold parse above.  The delta-warm pass
  // rewrote the base over the grown input, so this is an exact hit; a rep
  // that is not reads 0, and the record then leaves the key out, which
  // fails the tier-1 gate.
  const std::string snapshot_path =
      io::snapshot_cache_path(config.cache_dir, tle_path);
  const io::MappedFile tle_grown(tle_path);
  const auto warm_rep = [&] {
    std::size_t records = 0;
    const double seconds = seconds_of([&] {
      const std::optional<io::SnapshotFile> snapshot =
          io::open_snapshot(snapshot_path, config.parse_policy);
      if (!snapshot.has_value()) return;
      const io::InputClassification input =
          io::classify_inputs(snapshot->state, tle_grown, threads);
      if (input.match != io::InputMatch::kExact) return;
      const std::optional<io::SnapshotData> loaded =
          io::load_snapshot(*snapshot, nullptr, threads);
      records = loaded.has_value() ? loaded->catalog.record_count() : 0;
    });
    return static_cast<double>(records) / seconds;
  };
  std::map<std::string, std::vector<double>> reps;
  std::vector<double>& cold_rates = reps["tle_records_per_s"];
  std::vector<double>& warm_rates = reps["warm_start_records_per_s"];
  cold_rates.push_back(cold_rep());
  warm_rates.push_back(warm_rep());

  std::map<std::string, double> throughput;
  // The TLE text writer (DESIGN.md §19): the fastest of three to_text
  // runs at the run's thread count, and its bytes against the serial text,
  // over the bench catalog parsed once more outside any timed region (the
  // catalog the cold pass built from the same bytes).  This leg and the
  // simulator's free their text and catalogs in their own scopes, so the
  // later reps do not run beside them.
  tle::TleCatalog catalog;
  {
    diag::ParseLog log(config.parse_policy);
    tle::IngestOptions options;
    options.log = &log;
    options.num_threads = threads;
    catalog.add_from_text(tle_mapped.view(), options);
  }
  {
    std::string formatted;
    const double format_s =
        best_seconds([&] { formatted = catalog.to_text(threads); });
    if (format_s > 0.0) {
      throughput["tle_format_records_per_s"] =
          static_cast<double>(catalog.record_count()) / format_s;
    }
    throughput["format_threads_identical"] =
        formatted == catalog.to_text(1) ? 1.0 : 0.0;
  }
  // The constellation simulator (DESIGN.md §20): the fastest of three runs
  // of the bench catalog's scenario at the run's thread count, against the
  // serial run's catalog text and failures.
  {
    const simulation::ConstellationSimulator simulator(
        simulation::scenario::paper_window(&dst, 2, 30.0));
    simulation::SimulationResult simulated;
    const double simulate_s =
        best_seconds([&] { simulated = simulator.run(threads); });
    if (simulate_s > 0.0) {
      throughput["simulate_records_per_s"] =
          static_cast<double>(simulated.catalog.record_count()) / simulate_s;
    }
    const simulation::SimulationResult serial = simulator.run(1);
    const auto same_failure = [](const simulation::FailureRecord& a,
                                 const simulation::FailureRecord& b) {
      return a.catalog_number == b.catalog_number && a.jd == b.jd &&
             a.kind == b.kind;
    };
    throughput["simulate_threads_identical"] =
        simulated.catalog.to_text() == serial.catalog.to_text() &&
                std::equal(simulated.failures.begin(), simulated.failures.end(),
                           serial.failures.begin(), serial.failures.end(),
                           same_failure)
            ? 1.0
            : 0.0;
  }
  cold_rates.push_back(cold_rep());
  warm_rates.push_back(warm_rep());

  throughput["catalog_records"] =
      static_cast<double>(catalog.record_count());
  throughput["delta_appended_records"] =
      static_cast<double>(delta_appended_records);
  // The headline incremental-ingestion ratio: TLE bytes the delta-warm run
  // parsed over the TLE bytes a full parse reads.  (Every run parses the
  // Dst file, which no snapshot holds.)
  throughput["delta_tail_fraction"] =
      static_cast<double>(tail.size()) / tle_bytes;

  cold_rates.push_back(cold_rep());
  warm_rates.push_back(warm_rep());
  throughput["tle_records_per_s"] =
      *std::max_element(cold_rates.begin(), cold_rates.end());
  if (*std::min_element(warm_rates.begin(), warm_rates.end()) > 0.0) {
    throughput["warm_start_records_per_s"] =
        *std::max_element(warm_rates.begin(), warm_rates.end());
  }

  bench::write_bench_record(out_path, "micro_ingest", threads,
                            "paper_catalog(per_batch=2, cadence=30)",
                            throughput, metrics, reps);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  const io::ArgParser args(argc, argv);
  run_telemetry_pass(args.option_or("bench-out", "BENCH_ingest.json"),
                     static_cast<int>(args.nonnegative_integer_or("threads", 0)));
  return 0;
}
