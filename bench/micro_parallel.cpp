// Serial-vs-N-thread speedup of the end-to-end measurement pipeline on a
// synthetic 2k-satellite catalog: build tracks + clean + warm caches
// (CosmicDance construction), then run the storm correlation scans and a
// post-event envelope — the three hot loops the exec subsystem parallelises.
//
// Reported per thread count: wall time and speedup vs the num_threads=1
// serial path.  The exec ordering contract makes the *outputs* identical at
// every thread count (tests/parallel_differential_test.cpp asserts this
// bit-for-bit); a checksum is printed so a drift would be visible here too.
//
// After the table, one instrumented pass at --threads 0 collects cd_obs
// telemetry (phase wall times, work counters) and writes it with the
// per-thread-count timings as a machine-readable bench record.
//
//   ./micro_parallel [--satellites N] [--repeats R] [--bench-out F]
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <thread>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "io/args.hpp"
#include "io/table.hpp"
#include "obs/obs.hpp"
#include "spaceweather/generator.hpp"
#include "timeutil/hour_axis.hpp"

using namespace cosmicdance;

namespace {

/// Synthetic Starlink-like catalog: `satellites` tracks, each ~200 days of
/// half-day-cadence TLEs somewhere inside the Dst window, shell altitudes
/// spread over the operational bands.  Deterministic per (seed, satellite).
tle::TleCatalog synthetic_catalog(const spaceweather::DstIndex& dst,
                                  int satellites) {
  tle::TleCatalog catalog;
  const double window_start = timeutil::julian_from_hour_index(dst.start_hour());
  const double window_days =
      static_cast<double>(dst.size()) / 24.0;
  for (int s = 0; s < satellites; ++s) {
    Rng rng(0x5eedULL * 2654435761ULL + static_cast<std::uint64_t>(s));
    const double life_days = 200.0;
    const double start =
        window_start + rng.uniform(0.0, window_days - life_days);
    // ~15.0-15.4 rev/day sits in the 520-560 km Starlink shells.
    const double base_mean_motion = 15.0 + 0.4 * rng.uniform();
    tle::Tle tle;
    tle.catalog_number = s + 1;
    tle.international_designator = "20100A";
    tle.bstar = 1.0e-4 * (1.0 + rng.uniform());
    tle.inclination_deg = 53.05;
    tle.raan_deg = rng.uniform(0.0, 360.0);
    tle.eccentricity = 0.0002;
    tle.arg_perigee_deg = 90.0;
    tle.mean_anomaly_deg = 0.0;
    tle.element_set_number = 1;
    tle.rev_number = 1;
    for (double t = 0.0; t < life_days; t += 0.5 + 0.2 * rng.uniform()) {
      tle.epoch_jd = start + t;
      tle.mean_motion_revday = base_mean_motion + 5e-4 * rng.normal();
      tle.mean_anomaly_deg = std::fmod(tle.mean_anomaly_deg + 137.0, 360.0);
      catalog.add(tle);
    }
  }
  return catalog;
}

/// One end-to-end pipeline pass; returns a value-dependent checksum so the
/// work cannot be optimised away and output drift across thread counts
/// would show.
double run_pipeline(const spaceweather::DstIndex& dst,
                    const tle::TleCatalog& catalog, int num_threads,
                    obs::Metrics* metrics = nullptr) {
  core::PipelineConfig config;
  config.num_threads = num_threads;
  config.metrics = metrics;
  const core::CosmicDance pipeline(dst, catalog, config);
  const double p95 = pipeline.dst_threshold_at_percentile(95.0);
  const core::ChangeSamples storm = pipeline.changes_for_storms(p95);
  const auto epochs = pipeline.correlator().storm_event_epochs(p95);
  double checksum = static_cast<double>(pipeline.tracks().size());
  for (const double v : storm.altitude_km) checksum += v;
  for (const double v : storm.drag_ratio) checksum += v;
  if (!epochs.empty()) {
    const auto envelope = pipeline.post_event_envelope(
        epochs.front(), 30, core::EnvelopeSelection::kAll);
    for (const double v : envelope.median_km) {
      if (std::isfinite(v)) checksum += v;
    }
  }
  return checksum;
}

}  // namespace

int main(int argc, char** argv) {
  const io::ArgParser args(argc, argv);
  const int satellites = static_cast<int>(args.integer_or("satellites", 2000));
  const int repeats = static_cast<int>(args.integer_or("repeats", 3));

  const auto dst = spaceweather::DstGenerator(
                       spaceweather::DstGenerator::paper_window_2020_2024())
                       .generate();
  const auto catalog = synthetic_catalog(dst, satellites);
  std::printf("synthetic catalog: %zu satellites, %zu TLEs, %zu Dst hours\n",
              catalog.satellite_count(), catalog.record_count(), dst.size());
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("hardware concurrency: %u\n", hw);

  run_pipeline(dst, catalog, 0);  // warm-up (page cache, shared pool spawn)

  io::TablePrinter table({"threads", "best_ms", "speedup", "checksum"});
  std::map<std::string, double> throughput;
  double serial_ms = 0.0;
  for (const int threads : {1, 2, 4, 8}) {
    double best_ms = 1e300;
    double checksum = 0.0;
    for (int r = 0; r < repeats; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      checksum = run_pipeline(dst, catalog, threads);
      const auto t1 = std::chrono::steady_clock::now();
      best_ms = std::min(
          best_ms,
          std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
    if (threads == 1) serial_ms = best_ms;
    throughput["best_ms_t" + std::to_string(threads)] = best_ms;
    throughput["speedup_t" + std::to_string(threads)] = serial_ms / best_ms;
    table.add_row({std::to_string(threads), io::TablePrinter::num(best_ms, 1),
                   io::TablePrinter::num(serial_ms / best_ms, 2) + "x",
                   io::TablePrinter::num(checksum, 3)});
  }
  table.print(std::cout);
  if (hw < 2) {
    std::printf(
        "note: single-core host — parallel speedup cannot manifest here; "
        "the checksum column still verifies thread-count-independent output.\n");
  } else {
    std::printf("target: >= 2x end-to-end speedup at 8 threads\n");
  }

  // Instrumented telemetry pass (all hardware threads): phase wall times
  // and work counters for the same end-to-end run, exported with the
  // per-thread-count timings above.
  obs::Metrics metrics;
  run_pipeline(dst, catalog, 0, &metrics);
  bench::write_bench_record(
      args.option_or("bench-out", "BENCH_parallel.json"), "micro_parallel", 0,
      "synthetic_catalog(satellites=" + std::to_string(satellites) + ")",
      throughput, metrics);
  return 0;
}
