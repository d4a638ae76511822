#include "core/pipeline.hpp"

#include <cstddef>
#include <cstdint>
#include <optional>

#include "io/file.hpp"
#include "io/snapshot.hpp"
#include "obs/obs.hpp"
#include "spaceweather/wdc.hpp"

namespace cosmicdance::core {

CosmicDance::CosmicDance(spaceweather::DstIndex dst, tle::TleCatalog catalog,
                         PipelineConfig config)
    : CosmicDance(std::make_shared<const io::SnapshotData>(io::SnapshotData{
                      std::move(dst), std::move(catalog), {}, {}}),
                  std::move(config)) {}

CosmicDance::CosmicDance(std::shared_ptr<const io::SnapshotData> inputs,
                         PipelineConfig config, std::future<void> snapshot_save)
    : config_(std::move(config)),
      inputs_(std::move(inputs)),
      correlator_(&inputs_->dst, config_.predecay_threshold_km,
                  config_.num_threads, config_.metrics),
      snapshot_save_(std::move(snapshot_save)) {
  {
    const obs::ScopedPhase phase(config_.metrics, "pipeline.build_tracks");
    tracks_ = clean_tracks(catalog(), config_.num_threads, config_.metrics);
  }
  if (config_.metrics != nullptr) {
    config_.metrics->set_gauge("pipeline.num_threads_requested",
                               static_cast<double>(config_.num_threads));
    config_.metrics->set_gauge("pipeline.tracks_cleaned",
                               static_cast<double>(tracks_.size()));
  }
}

void CosmicDance::wait_for_snapshot_save() {
  if (snapshot_save_.valid()) snapshot_save_.get();
}

CosmicDance CosmicDance::from_files(const std::string& wdc_dst_path,
                                    const std::string& tle_path,
                                    PipelineConfig config) {
  // Both inputs are mapped once up front; the zero-copy parsers scan the
  // mappings directly and the snapshot cache hashes the same TLE bytes, so
  // hit and miss runs agree on what the input was.
  std::optional<io::MappedFile> dst_file(std::in_place, wdc_dst_path);
  std::optional<io::MappedFile> tle_file(std::in_place, tle_path);
  if (config.metrics != nullptr) {
    std::size_t mapped_bytes = 0;
    if (dst_file->is_mapped()) mapped_bytes += dst_file->size();
    if (tle_file->is_mapped()) mapped_bytes += tle_file->size();
    if (mapped_bytes > 0) {
      config.metrics->counter("ingest.bytes_mapped").add(mapped_bytes);
    }
  }

  // The base the TLE parse extends: a matching snapshot's catalog and TLE
  // report, or nothing.
  const bool use_cache = !config.cache_dir.empty();
  std::string snapshot_path;
  io::SnapshotData data;
  io::InputMatch match = io::InputMatch::kMismatch;
  // The current input against the recorded one; with no usable recorded
  // state, only its `current` state counts.
  io::InputClassification input;
  if (use_cache) {
    snapshot_path = io::snapshot_cache_path(config.cache_dir, tle_path);
    // The recorded state first, then one fingerprint of the input before
    // anything is decoded or parsed; it drops the input pages it has
    // hashed.  Only a snapshot of the same input, or of a prefix of it, is
    // decoded, from the mapping its state was read from.
    const std::optional<io::SnapshotFile> snapshot =
        io::open_snapshot(snapshot_path, config.parse_policy, config.metrics);
    {
      const obs::ScopedPhase phase(config.metrics, "ingest.fingerprint");
      input = io::classify_inputs(
          snapshot.has_value() ? snapshot->state : io::IngestState{}, *tle_file,
          config.num_threads);
    }
    if (snapshot.has_value() && input.match == io::InputMatch::kMismatch) {
      // A snapshot of some *other* input (shrunk or edited in place):
      // stale.  Count the rejection and reparse.
      if (config.metrics != nullptr) {
        config.metrics->counter("snapshot.rejected").add(1);
      }
    } else if (snapshot.has_value()) {
      std::optional<io::SnapshotData> loaded =
          io::load_snapshot(*snapshot, config.metrics, config.num_threads);
      if (loaded.has_value()) {
        match = input.match;
        data = std::move(*loaded);
        if (config.metrics != nullptr) {
          config.metrics->counter("snapshot.loaded").add(1);
        }
        // An exact hit never reads the input again.
        if (match == io::InputMatch::kExact) tle_file.reset();
      }
    }
  }

  // Every run parses the Dst file, before any TLE text, as a full parse
  // would: it takes milliseconds, so the snapshot caches only the TLE parse
  // (DESIGN.md §13).
  diag::ParseLog dst_log(config.parse_policy);
  spaceweather::DstIndex dst;
  {
    const obs::ScopedPhase phase(config.metrics, "ingest.dst");
    dst = spaceweather::from_wdc(dst_file->view(), &dst_log, wdc_dst_path);
    if (config.metrics != nullptr) {
      config.metrics->counter("ingest.dst_hours").add(dst.size());
    }
  }
  dst_file.reset();

  // The quality report is the Dst parse's, then the TLE parse's: the
  // base's part, then the tail's — the order of one full parse.
  diag::DataQualityReport quality = dst_log.report();
  quality.merge(std::move(data.quality));
  if (match == io::InputMatch::kExact) {
    if (config.metrics != nullptr) {
      config.metrics->counter("ingest.cache_hit").add(1);
    }
  } else {
    // The one TLE parse path: the bytes the base does not hold, numbered
    // from the line after it.  A cold or stale run's empty base makes that
    // the whole file from line 1; an append run parses only the tail, and
    // the values, counters, quarantine order — and the first strict-mode
    // throw — equal a full reparse of the grown file.  The parse drops each
    // shard's pages of the mapping once parsed.
    const auto base_len = static_cast<std::size_t>(data.state.tle_len);
    const std::uint64_t base_lines =
        match == io::InputMatch::kAppend ? input.prefix_lines : 0;
    if (match == io::InputMatch::kAppend && config.metrics != nullptr) {
      config.metrics->counter("ingest.delta_hit").add(1);
      config.metrics->counter("ingest.tail_bytes").add(tle_file->size() - base_len);
    }
    diag::ParseLog tle_log(config.parse_policy);
    {
      const obs::ScopedPhase phase(config.metrics, "ingest.tle");
      data.catalog.add_from_text(
          *tle_file, base_len,
          tle::IngestOptions{&tle_log, config.num_threads, tle_path,
                             config.metrics,
                             static_cast<std::size_t>(base_lines) + 1});
    }
    quality.merge(tle_log.report());
    if (use_cache) data.state = input.current;
  }
  data.dst = std::move(dst);
  data.quality = std::move(quality);

  const auto inputs = std::make_shared<const io::SnapshotData>(std::move(data));
  std::future<void> save;
  if (use_cache && match != io::InputMatch::kExact) {
    // Rewrite the base over the current input on a background thread that
    // overlaps the track build.  Best-effort: a failed write (e.g. a
    // read-only cache dir) is counted but never fails the run.
    save = std::async(
        std::launch::async,
        [inputs, path = snapshot_path, metrics = config.metrics,
         threads = config.num_threads]() noexcept {
          try {
            io::save_snapshot(path, *inputs, metrics, threads);
          } catch (...) {
            // An allocation failure skips the cache write too.
          }
        });
  }
  return CosmicDance(inputs, std::move(config), std::move(save));
}

std::vector<SatelliteTrack> CosmicDance::raw_tracks() const {
  return tracks_from_catalog(catalog(), config_.num_threads, config_.metrics);
}

std::vector<spaceweather::StormEvent> CosmicDance::storms() const {
  return spaceweather::StormDetector().detect(dst());
}

double CosmicDance::dst_threshold_at_percentile(double p) const {
  return dst().dst_threshold_at_percentile(p);
}

PostEventEnvelope CosmicDance::post_event_envelope(double event_jd, int days,
                                                   EnvelopeSelection selection) const {
  return correlator_.post_event_envelope(tracks_, event_jd, days, selection);
}

ChangeSamples CosmicDance::changes_for_storms(double max_peak_nt) const {
  return correlator_.change_samples(tracks_,
                                    correlator_.storm_event_epochs(max_peak_nt));
}

std::vector<double> CosmicDance::altitude_changes_for_storms(
    double max_peak_nt) const {
  return correlator_.altitude_change_samples(
      tracks_, correlator_.storm_event_epochs(max_peak_nt));
}

std::vector<double> CosmicDance::altitude_changes_for_quiet(
    double min_dst_nt, std::size_t epochs) const {
  return correlator_.altitude_change_samples(
      tracks_, correlator_.quiet_epochs(min_dst_nt, epochs));
}

std::vector<double> CosmicDance::drag_changes_for_storms(double max_peak_nt) const {
  return correlator_.drag_change_samples(
      tracks_, correlator_.storm_event_epochs(max_peak_nt));
}

}  // namespace cosmicdance::core
