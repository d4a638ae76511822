// Shared helpers for the figure benches: standard datasets at bench scale
// and paper-vs-measured printing.
//
// Scale note: the real study observes ~6,000 satellites; benches default to
// a few hundred (launch batches are shrunk, the timeline is not) so every
// binary runs in seconds.  The *shapes* under comparison are scale-free;
// absolute counts are reported next to the scale factor.
#pragma once

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "exec/thread_pool.hpp"
#include "io/args.hpp"
#include "io/file.hpp"
#include "obs/obs.hpp"
#include "simulation/scenario.hpp"
#include "spaceweather/generator.hpp"

namespace cosmicdance::bench {

/// The calibrated 2020 - May 2024 Dst series.
inline spaceweather::DstIndex paper_dst() {
  return spaceweather::DstGenerator(
             spaceweather::DstGenerator::paper_window_2020_2024())
      .generate();
}

/// Paper window extended through the May-2024 super-storm.
inline spaceweather::DstIndex superstorm_dst() {
  return spaceweather::DstGenerator(
             spaceweather::DstGenerator::with_may_2024_superstorm())
      .generate();
}

/// Standard bench-scale constellation run over the paper window.
/// `per_batch`=4 / cadence 16 days yields ~400 satellites.
inline tle::TleCatalog paper_catalog(const spaceweather::DstIndex& dst,
                                     int per_batch = 4, double cadence = 16.0) {
  auto config = simulation::scenario::paper_window(&dst, per_batch, cadence);
  return simulation::ConstellationSimulator(config).run().catalog;
}

/// A directory of this run's own under the system temp directory,
/// `<prefix>.XXXXXX` from mkdtemp, removed with everything in it when the
/// object is destroyed (at exit, for a static one): two runs never share
/// their generated inputs, and none outlives its run.
class RunDir {
 public:
  explicit RunDir(const std::string& prefix)
      : path_((std::filesystem::temp_directory_path() / (prefix + ".XXXXXX"))
                  .string()) {
    if (::mkdtemp(path_.data()) == nullptr) {
      throw std::runtime_error("cannot create a directory like " + path_);
    }
  }
  ~RunDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

/// Pipeline config from a bench binary's command line: every figure bench
/// accepts --threads N (0 = all hardware threads, 1 = serial; the exec
/// ordering contract makes the outputs identical either way).
inline core::PipelineConfig config_from_args(int argc, const char* const* argv) {
  const io::ArgParser args(argc, argv);
  core::PipelineConfig config;
  config.num_threads = static_cast<int>(args.nonnegative_integer_or("threads", 0));
  return config;
}

/// Print a "paper says / we measured" comparison line.
inline void expect(const std::string& what, const std::string& paper,
                   double measured, int precision = 1) {
  std::printf("  %-52s paper: %-14s measured: %.*f\n", what.c_str(),
              paper.c_str(), precision, measured);
}

inline void note(const std::string& text) {
  std::printf("  %s\n", text.c_str());
}

/// Machine-readable bench telemetry record, shared by the micro benches:
///   {"bench": ..., "threads": N, "threads_resolved": W,
///    "hardware_concurrency": H, "dataset": ...,
///    "throughput": {"name": rate, ...}, "reps": {"name": [rate, ...], ...},
///    "metrics": <MetricsReport JSON>}
/// `threads` is the requested knob (0 = auto); `threads_resolved` is the
/// worker count the exec subsystem actually ran, and
/// `hardware_concurrency` the machine it ran on — without both, a
/// throughput regression on an 8-core box and a healthy run on a 1-core
/// box are indistinguishable in the archived records.  `reps`, written
/// only when given, holds each repetition's rate behind a best-of-reps
/// throughput key; tools/bench_compare.py diffs throughput alone.
/// `bench` / `dataset` / throughput keys are caller-controlled literals and
/// must not need JSON escaping.
inline void write_bench_record(
    const std::string& path, const std::string& bench, int threads,
    const std::string& dataset, const std::map<std::string, double>& throughput,
    const obs::Metrics& metrics,
    const std::map<std::string, std::vector<double>>& reps = {}) {
  std::string json =
      "{\n  \"bench\": \"" + bench + "\",\n  \"threads\": " +
      std::to_string(threads) + ",\n  \"threads_resolved\": " +
      std::to_string(exec::resolve_thread_count(threads)) +
      ",\n  \"hardware_concurrency\": " +
      std::to_string(std::thread::hardware_concurrency()) +
      ",\n  \"dataset\": \"" + dataset + "\",\n  \"throughput\": {";
  bool first = true;
  char buffer[64];
  for (const auto& [name, value] : throughput) {
    if (!first) json += ", ";
    first = false;
    std::snprintf(buffer, sizeof(buffer), "%.6g", value);
    json += "\"" + name + "\": " + buffer;
  }
  json += "},\n";
  if (!reps.empty()) {
    json += "  \"reps\": {";
    first = true;
    for (const auto& [name, values] : reps) {
      if (!first) json += ", ";
      first = false;
      json += "\"" + name + "\": [";
      for (std::size_t i = 0; i < values.size(); ++i) {
        std::snprintf(buffer, sizeof(buffer), "%.6g", values[i]);
        json += (i > 0 ? ", " : "") + std::string(buffer);
      }
      json += "]";
    }
    json += "},\n";
  }
  json += "  \"metrics\": " + metrics.snapshot().to_json() + "\n}\n";
  io::write_file(path, json);
  std::printf("wrote bench record to %s\n", path.c_str());
}

}  // namespace cosmicdance::bench
