// The CosmicDance façade: ingest -> order in time -> clean -> correlate.
//
// This is the library's main entry point, mirroring the tool in the paper:
// feed it a Dst series and a TLE catalog (from files or generators) and ask
// for storm events, cleaned tracks and happens-closely-after analyses.
#pragma once

#include <future>
#include <memory>
#include <string>
#include <vector>

#include "core/analysis.hpp"
#include "core/correlator.hpp"
#include "diag/diag.hpp"
#include "io/snapshot.hpp"
#include "spaceweather/storms.hpp"
#include "tle/catalog.hpp"

namespace cosmicdance::obs {
class Metrics;
}  // namespace cosmicdance::obs

namespace cosmicdance::core {

/// What a run may set.  The paper's other rules — the cleaning band and
/// shell estimate (core/cleaning.hpp), the event window and the Fig 4a
/// excursion floor (core/correlator.hpp) and the storm threshold
/// (spaceweather::StormDetector's default) — are constants; the paper calls
/// only the pre-decay threshold configurable.
struct PipelineConfig {
  /// The pre-decay filter's threshold (is_pre_decayed) for every
  /// correlator scan: a satellite whose pre-event altitude is further than
  /// this from its long-term median is excluded from the event analyses.
  double predecay_threshold_km = kPredecayThresholdKm;
  /// Worker count for the per-satellite hot loops (track building, cleaning
  /// and the correlation scans): 0 = all hardware threads, 1 = exact serial
  /// path, n = n workers.  Every value yields bit-identical results — the
  /// exec subsystem's ordering contract (DESIGN.md §"Parallel execution"),
  /// enforced by tests/parallel_differential_test.cpp.
  int num_threads = 0;
  /// Ingestion failure handling for from_files: strict throws on the first
  /// malformed record (historical behaviour); tolerant quarantines it,
  /// keeps going, and reports through quality_report().
  diag::ParsePolicy parse_policy = diag::ParsePolicy::kStrict;
  /// Optional observability registry (non-owning; must outlive the
  /// pipeline).  nullptr — the default — disables all collection: every
  /// instrumented site reduces to one pointer test.  When set, phase wall
  /// times, work counters and gauges accumulate into the registry; work
  /// counters are bit-identical at every num_threads value, while
  /// scheduling counters and timings are explicitly outside that contract
  /// (DESIGN.md §11).
  obs::Metrics* metrics = nullptr;
  /// Snapshot-cache directory for from_files (DESIGN.md §13–14).  Empty —
  /// the default — disables caching.  When set, the TLE parse is cached:
  /// a valid snapshot keyed by the TLE bytes' content hash skips TLE text
  /// parsing entirely (counter `ingest.cache_hit`); a TLE input that grew
  /// by appended bytes over an unchanged prefix parses only the tail
  /// (counters `ingest.delta_hit`, `ingest.tail_bytes`) and rewrites the
  /// snapshot over the grown input; any other change (or corrupt
  /// snapshot) falls back to the text path and rewrites a fresh snapshot
  /// (`snapshot.rejected`).  The Dst file is parsed on every run.
  /// Results are bit-identical on every path.
  std::string cache_dir;
};

class CosmicDance {
 public:
  /// Takes ownership of both datasets; cleaning runs eagerly.
  CosmicDance(spaceweather::DstIndex dst, tle::TleCatalog catalog,
              PipelineConfig config = {});

  /// Convenience constructor: WDC Dst file + TLE file.
  static CosmicDance from_files(const std::string& wdc_dst_path,
                                const std::string& tle_path,
                                PipelineConfig config = {});

  /// Blocks until the background snapshot save spawned by from_files has
  /// finished.  Every cached run that is not an exact hit (cold, append or
  /// stale) rewrites the base off the critical path: the pipeline is usable
  /// — and returns results — while the cache write is still in flight, but
  /// the write always completes before the pipeline is destroyed.  Call
  /// this to force the handoff earlier, e.g. before a second pipeline is
  /// pointed at the same cache directory.  No-op when no save is pending.
  void wait_for_snapshot_save();

  // ---- data access --------------------------------------------------------
  [[nodiscard]] const spaceweather::DstIndex& dst() const noexcept {
    return inputs_->dst;
  }
  [[nodiscard]] const tle::TleCatalog& catalog() const noexcept {
    return inputs_->catalog;
  }
  /// Tracks after outlier + orbit-raising cleaning.
  [[nodiscard]] std::span<const SatelliteTrack> tracks() const noexcept {
    return tracks_;
  }
  /// Tracks built from the raw catalog with no cleaning.  Fig 10(a) reads
  /// fig10_samples(catalog(), tracks()) instead, which computes only the
  /// removed rows' altitudes; the in-process benchmark still calls this.
  [[nodiscard]] std::vector<SatelliteTrack> raw_tracks() const;

  // ---- solar-activity views (Figs 1-2) -------------------------------------
  /// The default StormDetector's storms: the list the correlator's storm
  /// epochs filter.
  [[nodiscard]] std::vector<spaceweather::StormEvent> storms() const;
  /// Dst value at an intensity percentile (e.g. 99 -> about -63 nT).
  [[nodiscard]] double dst_threshold_at_percentile(double p) const;

  // ---- correlation analyses (Figs 3-7) --------------------------------------
  [[nodiscard]] const EventCorrelator& correlator() const noexcept {
    return correlator_;
  }
  [[nodiscard]] PostEventEnvelope post_event_envelope(
      double event_jd, int days, EnvelopeSelection selection) const;
  /// Fig 5(b) and 5(c) from one scan of the storm cells.
  [[nodiscard]] ChangeSamples changes_for_storms(double max_peak_nt) const;
  [[nodiscard]] std::vector<double> altitude_changes_for_storms(
      double max_peak_nt) const;
  [[nodiscard]] std::vector<double> altitude_changes_for_quiet(
      double min_dst_nt, std::size_t epochs) const;
  [[nodiscard]] std::vector<double> drag_changes_for_storms(double max_peak_nt) const;

  [[nodiscard]] const PipelineConfig& config() const noexcept { return config_; }

  /// Ingestion data-quality outcome.  Populated by from_files; empty (no
  /// stages) when the datasets were handed over pre-parsed.
  [[nodiscard]] const diag::DataQualityReport& quality_report() const noexcept {
    return inputs_->quality;
  }

 private:
  CosmicDance(std::shared_ptr<const io::SnapshotData> inputs,
              PipelineConfig config, std::future<void> snapshot_save = {});

  PipelineConfig config_;
  /// The parsed inputs (Dst series, catalog, quality report, ingest state),
  /// immutable and shared with a pending cache write, which copies nothing.
  std::shared_ptr<const io::SnapshotData> inputs_;
  std::vector<SatelliteTrack> tracks_;
  /// Points at inputs_->dst, which stays put when the pipeline moves, so
  /// the implicit member-wise moves are safe.
  EventCorrelator correlator_;
  /// Pending cache write (valid only between from_files spawning it and
  /// the first wait); std::async semantics make the future's destructor
  /// block, so destroying or move-assigning over the pipeline waits for
  /// the write and it can never outlive the pipeline.
  std::future<void> snapshot_save_;
};

}  // namespace cosmicdance::core
