#include "core/pipeline.hpp"

#include <cstddef>
#include <optional>
#include <string_view>

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
      correlator_(&inputs_->dst, config_.correlator, config_.num_threads,
                  config_.metrics),
      snapshot_save_(std::move(snapshot_save)) {
  {
    const obs::ScopedPhase phase(config_.metrics, "pipeline.build_tracks");
    tracks_ = clean_tracks(catalog(), config_.correlator.cleaning,
                           config_.num_threads, config_.metrics);
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
  // mappings directly and the snapshot cache hashes the same bytes, so hit
  // and miss runs agree on what the inputs were.
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

  const bool use_cache = !config.cache_dir.empty();
  std::string snapshot_path;
  io::SnapshotData data;
  // The current inputs' state, once a classification has fingerprinted them.
  std::optional<io::IngestState> state;
  io::InputMatch match = io::InputMatch::kMismatch;
  if (use_cache) {
    snapshot_path =
        io::snapshot_cache_path(config.cache_dir, wdc_dst_path, tle_path);
    // The fingerprint runs on one worker while the others decode the
    // snapshot's sections, dropping the input pages it has hashed as it
    // goes.  An exact hit never reads the inputs again, so it unmaps them
    // right there; an append run faults back only the tail it parses.
    std::optional<io::InputClassification> cls;
    std::optional<io::SnapshotData> snapshot = io::load_snapshot(
        snapshot_path, config.parse_policy, config.metrics, config.num_threads,
        [&](const io::IngestState& recorded) {
          const obs::ScopedPhase phase(config.metrics, "ingest.fingerprint");
          cls = io::classify_inputs(recorded, *dst_file, *tle_file);
          if (cls->match == io::InputMatch::kExact) {
            dst_file.reset();
            tle_file.reset();
          }
        });
    // The fingerprint measured the current inputs whatever the rest of the
    // file held, so a rejected snapshot does not cost a second one.
    if (cls.has_value()) state = cls->current;
    if (!snapshot.has_value() && !tle_file.has_value()) {
      // Exact inputs, but a later section failed: the text path needs them.
      dst_file.emplace(wdc_dst_path);
      tle_file.emplace(tle_path);
    }
    if (snapshot.has_value()) {
      match = cls->match;  // a decoded snapshot always ran the fingerprint
      if (match == io::InputMatch::kMismatch) {
        // Structurally valid snapshot of some *other* inputs (shrunk or
        // edited in place): stale.  Count the rejection and reparse.
        if (config.metrics != nullptr) {
          config.metrics->counter("snapshot.rejected").add(1);
        }
      } else {
        data = std::move(*snapshot);
        if (config.metrics != nullptr) {
          config.metrics->counter("snapshot.loaded").add(1);
        }
      }
    }
  }

  if (match == io::InputMatch::kExact) {
    // Byte-identical inputs: skip text parsing entirely.
    if (config.metrics != nullptr) {
      config.metrics->counter("ingest.cache_hit").add(1);
    }
  } else if (match == io::InputMatch::kAppend) {
    // Unchanged prefix plus appended bytes: parse only the tails,
    // extending the snapshot's datasets in place.  The readers resume
    // with absolute line numbers, so values, counters, quarantine
    // order — and the first strict-mode throw — are bit-identical to
    // a full reparse of the grown files (DESIGN.md §14).
    const std::string_view dst_tail =
        dst_file->view().substr(data.state.dst_len);
    const std::string_view tle_tail =
        tle_file->view().substr(data.state.tle_len);
    if (config.metrics != nullptr) {
      config.metrics->counter("ingest.delta_hit").add(1);
      config.metrics->counter("ingest.tail_bytes")
          .add(dst_tail.size() + tle_tail.size());
    }
    diag::ParseLog tail_log(config.parse_policy);
    {
      const obs::ScopedPhase phase(config.metrics, "ingest.dst");
      const std::size_t prior_hours = data.dst.size();
      spaceweather::from_wdc_append(
          data.dst, dst_tail, &tail_log, wdc_dst_path,
          static_cast<std::size_t>(data.state.dst_lines) + 1);
      if (config.metrics != nullptr) {
        config.metrics->counter("ingest.dst_hours")
            .add(data.dst.size() - prior_hours);
      }
    }
    {
      const obs::ScopedPhase phase(config.metrics, "ingest.tle");
      data.catalog.add_from_text(
          tle_tail,
          tle::IngestOptions{
              &tail_log, config.num_threads, tle_path, config.metrics,
              static_cast<std::size_t>(data.state.tle_lines) + 1});
    }
    data.quality.merge(tail_log.report());
    data.state = *state;
  } else {
    diag::ParseLog log(config.parse_policy);
    {
      const obs::ScopedPhase phase(config.metrics, "ingest.dst");
      data.dst = spaceweather::from_wdc(dst_file->view(), &log, wdc_dst_path);
      if (config.metrics != nullptr) {
        config.metrics->counter("ingest.dst_hours").add(data.dst.size());
      }
    }
    {
      const obs::ScopedPhase phase(config.metrics, "ingest.tle");
      data.catalog.add_from_text(
          tle_file->view(),
          tle::IngestOptions{&log, config.num_threads, tle_path, config.metrics});
    }
    data.quality = log.report();
    if (use_cache) {
      if (!state.has_value()) {
        const obs::ScopedPhase phase(config.metrics, "ingest.fingerprint");
        state = io::ingest_state_of(dst_file->view(), tle_file->view());
      }
      data.state = *state;
    }
  }

  const auto inputs = std::make_shared<const io::SnapshotData>(std::move(data));
  std::future<void> save;
  if (use_cache && match != io::InputMatch::kExact) {
    // Rewrite the base over the current inputs on a background thread that
    // overlaps the track build.  Best-effort: a failed write (e.g. a
    // read-only cache dir) is counted but never fails the run.
    save = std::async(
        std::launch::async,
        [inputs, path = snapshot_path, policy = config.parse_policy,
         metrics = config.metrics, threads = config.num_threads]() noexcept {
          try {
            io::save_snapshot(path, *inputs, policy, metrics, threads);
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
  return spaceweather::StormDetector(config_.storm_detector).detect(dst());
}

double CosmicDance::dst_threshold_at_percentile(double p) const {
  return dst().dst_threshold_at_percentile(p);
}

PostEventEnvelope CosmicDance::post_event_envelope(double event_jd, int days,
                                                   EnvelopeSelection selection) const {
  return correlator_.post_event_envelope(tracks_, event_jd, days, selection);
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
