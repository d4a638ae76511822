// The cosmicdanced query service: an immutable, swapped-whole pipeline
// snapshot plus the request router that answers queries against it.
//
// Concurrency model (DESIGN.md §15): readers never wait for a rebuild.
// The entire queryable state — Dst series, catalog, cleaned tracks,
// correlator — lives inside one `core::CosmicDance` owned by an immutable
// ServeSnapshot behind a `std::shared_ptr<const ServeSnapshot>` slot with
// its own mutex, held only to copy or replace the pointer.  A request
// handler copies the pointer exactly once, builds its whole response from
// that object, and releases it; a concurrent reload builds the replacement
// pipeline entirely off to the side and swaps the pointer under the slot
// mutex.  In-flight requests keep the old snapshot alive
// through their shared_ptr until the response is written, so a reader sees
// either the old epoch or the new one — never a mix.  Every response
// carries the snapshot's epoch twice ("epoch" first, "epoch_end" last):
// equal values are the wire-visible proof that no swap tore the response.
//
// What the query mix would otherwise recompute on every request is derived
// once per epoch, before the snapshot is published: every storm's
// altitude-change samples, the sorted Dst intensities, the fleet's SGP4
// constants and the quality_report response.  So envelope_cdf and
// decay_summary read the snapshot instead of scanning the correlator, no
// correlator scan enters the shared exec pool per request, and no request
// serialises the quality report.  The memo needs no lock and no lazy fill:
// it is complete before any reader can see the snapshot, and never changes.
//
// The pipeline's const surface is safe to share: tracks are immutable once
// the CosmicDance constructor has built them, the propagate ops draw
// from the shared exec pool (a plain mutex-guarded task queue, safe to
// enter from many request threads at once), and everything else is pure
// reads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "sgp4/batch.hpp"

namespace cosmicdance::obs {
class Counter;
class Metrics;
}  // namespace cosmicdance::obs

namespace cosmicdance::serve {

/// One immutable serving epoch: the pipeline, its epoch number and the
/// results derived from it once per epoch (DESIGN.md §15 "Per-epoch
/// results").
struct ServeSnapshot {
  std::uint64_t epoch = 0;
  core::CosmicDance pipeline;
  /// Every Dst hour's intensity (-Dst clamped at 0), ascending: the sample
  /// behind dst_threshold_at_percentile.
  std::vector<double> dst_intensity;
  /// One (altitude change km, storm peak Dst nT) pair per (storm, track)
  /// sample of the default storm detector's storms, sorted.  The samples
  /// of storms with peak <= t are altitude_changes_for_storms(t)'s.
  std::vector<std::pair<double, double>> storm_changes;
  /// SGP4 constants of each satellite's latest TLE (from_catalog).
  sgp4::BatchPropagator latest;
  /// The whole quality_report response.  Empty when it would not fit one
  /// frame (kMaxFrameBytes); its size is kept either way, for the error
  /// that then answers the op.
  std::string quality_response;
  std::size_t quality_response_bytes = 0;

  /// Derives the per-epoch results from `built`.
  ServeSnapshot(std::uint64_t epoch_number, core::CosmicDance built);
};

/// What Service::handle tells the transport layer to do after responding.
struct HandleResult {
  std::string response;       ///< framed-payload JSON to send back
  bool shutdown = false;      ///< client asked the daemon to stop
};

/// The request router.  Thread-safe: handle() may be called concurrently
/// from any number of connection threads; reload() (also reachable via the
/// "reload" op) serialises rebuilds behind a mutex while readers keep
/// serving the old snapshot.
class Service {
 public:
  /// Rebuild callback for the "reload" op: produce a fresh pipeline (same
  /// inputs re-ingested — with a cache dir this is a warm snapshot load or
  /// a tail-only delta parse).  May throw; a throwing reload keeps the old
  /// snapshot and returns an error response.
  using Rebuild = std::function<core::CosmicDance()>;

  /// Takes the initial pipeline (becomes epoch 1).  `metrics` is optional
  /// and non-owning; when set, serve.requests / serve.errors / serve.reloads
  /// count every handled frame, error response and successful swap.  Each
  /// epoch's derived results are built in the phase serve.precompute of
  /// the pipeline's own registry (PipelineConfig::metrics).
  Service(core::CosmicDance initial, Rebuild rebuild,
          obs::Metrics* metrics = nullptr);

  /// Current snapshot (never null).  Handlers call this exactly once.
  [[nodiscard]] std::shared_ptr<const ServeSnapshot> snapshot() const;

  /// Route one request payload (JSON text) to its handler and return the
  /// response payload.  Never throws: malformed JSON (including nesting
  /// past kMaxJsonDepth), unknown ops, bad parameters, failed reloads and
  /// a response too large for one frame (over kMaxFrameBytes) all produce
  /// {"ok":false,...} responses (counted in serve.errors), so every
  /// response can be framed.
  [[nodiscard]] HandleResult handle(std::string_view request);

  /// Rebuild + swap.  Returns the new epoch, or 0 when no rebuild callback
  /// is configured.  A throwing rebuild propagates to the caller (handle()
  /// turns it into an error response) and the old snapshot stays.
  /// Concurrent calls serialise.
  std::uint64_t reload();

 private:
  /// handle() without its error answers: throws on any failure.
  HandleResult route(std::string_view request);

  // Guards only the pointer copy and swap; no rebuild or request runs
  // under it.  (libstdc++'s std::atomic<std::shared_ptr> locks through a
  // bit in the control-block pointer that ThreadSanitizer cannot model.)
  mutable std::mutex slot_mutex_;
  std::shared_ptr<const ServeSnapshot> slot_;
  std::mutex reload_mutex_;
  Rebuild rebuild_;
  obs::Metrics* metrics_;
  obs::Counter* requests_ = nullptr;
  obs::Counter* errors_ = nullptr;
  obs::Counter* reloads_ = nullptr;
};

}  // namespace cosmicdance::serve
