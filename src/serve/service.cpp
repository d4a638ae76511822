#include "serve/service.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <exception>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "core/propagation.hpp"
#include "obs/obs.hpp"
#include "serve/json.hpp"
#include "serve/wire.hpp"
#include "spaceweather/gscale.hpp"
#include "spaceweather/storms.hpp"
#include "stats/descriptive.hpp"
#include "stats/ecdf.hpp"
#include "timeutil/hour_axis.hpp"

namespace cosmicdance::serve {
namespace {

/// Handler-local failure: the dispatcher turns it into an {"ok":false}
/// response (and one serve.errors bump) without tearing down the connection.
class RequestError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

std::string error_response(std::string_view message) {
  std::string out = "{\"ok\":false,\"error\":\"";
  out += escape_json(message);
  out += "\"}";
  return out;
}

/// Opens the standard ok-envelope.  Every data field is appended between
/// open and close; "epoch_end" last is the torn-response sentinel.
std::string open_ok(std::uint64_t epoch, std::string_view op) {
  std::string out = "{\"ok\":true,\"epoch\":";
  out += std::to_string(epoch);
  out += ",\"op\":\"";
  out += op;
  out += "\"";
  return out;
}

void close_ok(std::string& out, std::uint64_t epoch) {
  out += ",\"epoch_end\":";
  out += std::to_string(epoch);
  out += "}";
}

void append_number_array(std::string& out, std::string_view key,
                         const std::vector<double>& values) {
  out += ",\"";
  out += key;
  out += "\":[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ",";
    out += json_number(values[i]);
  }
  out += "]";
}

double number_param_or(const JsonValue& request, std::string_view key,
                       double fallback) {
  const JsonValue* value = request.find(key);
  if (value == nullptr) return fallback;
  const auto parsed = value->number();
  if (!parsed) {
    throw RequestError(std::string(key) + " must be a number");
  }
  return *parsed;
}

long integer_param_or(const JsonValue& request, std::string_view key,
                      long fallback) {
  const JsonValue* value = request.find(key);
  if (value == nullptr) return fallback;
  const auto parsed = value->integer();
  if (!parsed) {
    throw RequestError(std::string(key) + " must be an integer");
  }
  return *parsed;
}

std::string handle_ping(const ServeSnapshot& snap) {
  std::string out = open_ok(snap.epoch, "ping");
  close_ok(out, snap.epoch);
  return out;
}

std::string handle_stats(const ServeSnapshot& snap) {
  const auto& pipeline = snap.pipeline;
  std::string out = open_ok(snap.epoch, "stats");
  out += ",\"satellites\":";
  out += std::to_string(pipeline.catalog().satellite_count());
  out += ",\"tles\":";
  out += std::to_string(pipeline.catalog().record_count());
  out += ",\"dst_hours\":";
  out += std::to_string(pipeline.dst().size());
  out += ",\"tracks\":";
  out += std::to_string(pipeline.tracks().size());
  close_ok(out, snap.epoch);
  return out;
}

std::string handle_sat_series(const ServeSnapshot& snap,
                              const JsonValue& request) {
  const auto tracks = snap.pipeline.tracks();
  const core::SatelliteTrack* track = nullptr;
  if (const JsonValue* sat = request.find("sat")) {
    const auto number = sat->integer();
    if (!number) throw RequestError("sat must be an integer");
    for (const auto& candidate : tracks) {
      if (candidate.catalog_number() == *number) {
        track = &candidate;
        break;
      }
    }
    if (track == nullptr) {
      throw RequestError("unknown satellite " + std::to_string(*number));
    }
  } else {
    for (const auto& candidate : tracks) {
      if (!candidate.empty()) {
        track = &candidate;
        break;
      }
    }
    if (track == nullptr) throw RequestError("no satellite tracks available");
  }
  if (track->empty()) {
    throw RequestError("satellite " + std::to_string(track->catalog_number()) +
                       " has no samples after cleaning");
  }

  // Optional thinning for plotting clients: an even stride over the track,
  // always keeping the last sample so the series ends where the data does.
  const long max_samples =
      integer_param_or(request, "max_samples",
                       static_cast<long>(track->size()));
  if (max_samples < 2) throw RequestError("max_samples must be at least 2");
  const std::size_t total = track->size();
  const auto limit = static_cast<std::size_t>(max_samples);
  const std::size_t stride = total <= limit ? 1 : (total + limit - 1) / limit;

  std::vector<double> epochs, altitudes, bstars;
  epochs.reserve(total / stride + 1);
  altitudes.reserve(total / stride + 1);
  bstars.reserve(total / stride + 1);
  for (std::size_t i = 0; i < total; i += stride) {
    const auto& sample = track->samples()[i];
    epochs.push_back(sample.epoch_jd);
    altitudes.push_back(sample.altitude_km);
    bstars.push_back(sample.bstar);
  }
  if (stride > 1 && (total - 1) % stride != 0) {
    const auto& last = track->samples().back();
    epochs.push_back(last.epoch_jd);
    altitudes.push_back(last.altitude_km);
    bstars.push_back(last.bstar);
  }

  std::string out = open_ok(snap.epoch, "sat_series");
  out += ",\"sat\":";
  out += std::to_string(track->catalog_number());
  out += ",\"samples\":";
  out += std::to_string(epochs.size());
  out += ",\"track_samples\":";
  out += std::to_string(total);
  out += ",\"median_altitude_km\":";
  out += json_number(track->median_altitude_km());
  append_number_array(out, "epoch_jd", epochs);
  append_number_array(out, "altitude_km", altitudes);
  append_number_array(out, "bstar", bstars);
  close_ok(out, snap.epoch);
  return out;
}

std::string handle_storm_summary(const ServeSnapshot& snap,
                                 const JsonValue& request) {
  const double threshold_nt =
      number_param_or(request, "threshold", spaceweather::kMinorThresholdNt);
  const std::vector<spaceweather::StormEvent> storms =
      spaceweather::StormDetector(threshold_nt).detect(snap.pipeline.dst());

  std::string out = open_ok(snap.epoch, "storm_summary");
  out += ",\"count\":";
  out += std::to_string(storms.size());
  out += ",\"storms\":[";
  for (std::size_t i = 0; i < storms.size(); ++i) {
    const auto& storm = storms[i];
    if (i != 0) out += ",";
    out += "{\"start\":\"";
    out += escape_json(storm.start_datetime().to_string());
    out += "\",\"duration_hours\":";
    out += std::to_string(storm.duration_hours());
    out += ",\"peak_dst_nt\":";
    out += json_number(storm.peak_dst_nt);
    out += ",\"category\":\"";
    out += escape_json(spaceweather::to_string(storm.category));
    out += "\"}";
  }
  out += "]";
  close_ok(out, snap.epoch);
  return out;
}

std::string handle_envelope_cdf(const ServeSnapshot& snap,
                                const JsonValue& request) {
  const double percentile = number_param_or(request, "percentile", 95.0);
  if (percentile < 0.0 || percentile > 100.0) {
    throw RequestError("percentile must be in [0, 100]");
  }
  const long points = integer_param_or(request, "points", 64);
  if (points < 2) throw RequestError("points must be at least 2");

  // dst_threshold_at_percentile's percentile over its own sorted sample, and
  // the samples of the storms storm_event_epochs keeps (peak <= threshold).
  // storm_changes is sorted, so the kept samples come out ascending and
  // need no Ecdf copy or sort; they are std::fabs values, never -0.0, so
  // their order is the one std::sort gives.
  if (snap.dst_intensity.empty()) {
    throw RequestError("intensity percentile of empty Dst series");
  }
  const double threshold_nt =
      -stats::percentile_of_sorted(snap.dst_intensity, percentile);
  std::vector<double> changes;
  changes.reserve(snap.storm_changes.size());
  for (const auto& [change_km, peak_nt] : snap.storm_changes) {
    if (peak_nt <= threshold_nt) changes.push_back(change_km);
  }

  std::string out = open_ok(snap.epoch, "envelope_cdf");
  out += ",\"percentile\":";
  out += json_number(percentile);
  out += ",\"threshold_nt\":";
  out += json_number(threshold_nt);
  out += ",\"samples\":";
  out += std::to_string(changes.size());
  out += ",\"cdf\":[";
  const auto steps =
      stats::ecdf_points_of_sorted(changes, static_cast<std::size_t>(points));
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (i != 0) out += ",";
    out += "[";
    out += json_number(steps[i].first);
    out += ",";
    out += json_number(steps[i].second);
    out += "]";
  }
  out += "]";
  close_ok(out, snap.epoch);
  return out;
}

/// As append_number_array, but NaN slots (failed propagations) become null.
void append_nullable_number_array(std::string& out, std::string_view key,
                                  const std::vector<double>& values) {
  out += ",\"";
  out += key;
  out += "\":[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ",";
    out += std::isnan(values[i]) ? "null" : json_number(values[i]);
  }
  out += "]";
}

/// Shared window parsing + work bound for the propagate op family: the
/// request's epoch grid from `start_jd`.  The grids are computed per
/// request, so the cell budget caps the work one query can pin a
/// connection thread on.
std::vector<double> propagation_grid(const JsonValue& request, double start_jd,
                                     std::size_t row_count,
                                     std::size_t max_cells) {
  const double end_jd = start_jd + number_param_or(request, "days", 30.0);
  const double step_hours = number_param_or(request, "step_hours", 24.0);
  if (end_jd <= start_jd) {
    throw RequestError("days must be positive");
  }
  if (!(step_hours > 0.0)) {
    throw RequestError("step_hours must be positive");
  }
  const double epochs = (end_jd - start_jd) * 24.0 / step_hours + 1.0;
  if (epochs * static_cast<double>(row_count) >
      static_cast<double>(max_cells)) {
    throw RequestError("requested grid exceeds " + std::to_string(max_cells) +
                       " propagation cells; reduce days or raise step_hours");
  }
  return core::make_grid(start_jd, end_jd, step_hours);
}

void append_propagation_counts(std::string& out,
                               const core::PropagationReport& report) {
  out += ",\"cells_ok\":";
  out += std::to_string(report.ok_cells);
  out += ",\"cells_decayed\":";
  out += std::to_string(report.decayed_cells);
  out += ",\"cells_error\":";
  out += std::to_string(report.error_cells);
}

std::string handle_propagate(const ServeSnapshot& snap,
                             const JsonValue& request) {
  const auto& catalog = snap.pipeline.catalog();
  if (catalog.empty()) throw RequestError("catalog is empty");

  long sat = integer_param_or(request, "sat", 0);
  if (sat == 0) sat = catalog.satellites().front();
  // Narrowing an id outside int's range would alias a real satellite.
  const tle::HistoryView history =
      std::in_range<int>(sat) ? catalog.history(static_cast<int>(sat))
                              : tle::HistoryView();
  if (history.empty()) {
    throw RequestError("unknown satellite " + std::to_string(sat));
  }
  const tle::Tle latest = history.back();

  std::vector<double> grid = propagation_grid(request, latest.epoch_jd, 1, 4096);
  const sgp4::BatchPropagator batch =
      sgp4::BatchPropagator::from_tles({&latest, 1});
  if (batch.empty()) {
    throw RequestError("satellite " + std::to_string(sat) +
                       " failed element recovery: " +
                       batch.init_failures().front().message);
  }
  const core::PropagationReport report = core::reduce_batch(
      batch, std::move(grid), snap.pipeline.config().num_threads, nullptr);
  const core::PropagationSeries& series = report.series.front();

  std::string out = open_ok(snap.epoch, "propagate");
  out += ",\"sat\":";
  out += std::to_string(series.catalog_number);
  out += ",\"tle_epoch_jd\":";
  out += json_number(series.tle_epoch_jd);
  out += ",\"deep_space\":";
  out += series.deep_space ? "true" : "false";
  out += ",\"samples\":";
  out += std::to_string(report.epochs_jd.size());
  out += ",\"valid_samples\":";
  out += std::to_string(series.valid_samples);
  out += ",\"decay_rate_km_per_day\":";
  out += json_number(series.decay_rate_km_per_day);
  out += ",\"decayed\":";
  out += series.decayed ? "true" : "false";
  append_propagation_counts(out, report);
  append_number_array(out, "epoch_jd", report.epochs_jd);
  append_nullable_number_array(out, "altitude_km", series.altitude_km);
  close_ok(out, snap.epoch);
  return out;
}

std::string handle_decay_summary(const ServeSnapshot& snap,
                                 const JsonValue& request) {
  const auto& catalog = snap.pipeline.catalog();
  if (catalog.empty()) throw RequestError("catalog is empty");
  const long top = integer_param_or(request, "top", 10);
  if (top < 1 || top > 100) throw RequestError("top must be in [1, 100]");

  // propagate_catalog's reduction over the epoch's held batch.
  const core::PropagationReport report = core::reduce_batch(
      snap.latest,
      propagation_grid(request, catalog.last_epoch_jd(),
                       catalog.satellite_count(), 262144),
      snap.pipeline.config().num_threads, nullptr);

  const std::vector<const core::PropagationSeries*> ranked =
      core::fastest_decaying(report, static_cast<std::size_t>(top));

  std::string out = open_ok(snap.epoch, "decay_summary");
  out += ",\"satellites\":";
  out += std::to_string(report.series.size());
  out += ",\"samples\":";
  out += std::to_string(report.epochs_jd.size());
  out += ",\"init_failures\":";
  out += std::to_string(report.init_failures.size());
  append_propagation_counts(out, report);
  out += ",\"fastest_decaying\":[";
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    const auto& series = *ranked[i];
    if (i != 0) out += ",";
    out += "{\"sat\":";
    out += std::to_string(series.catalog_number);
    out += ",\"decay_rate_km_per_day\":";
    out += json_number(series.decay_rate_km_per_day);
    out += ",\"first_altitude_km\":";
    out += json_number(series.first_altitude_km);
    out += ",\"last_altitude_km\":";
    out += json_number(series.last_altitude_km);
    out += ",\"decayed\":";
    out += series.decayed ? "true" : "false";
    out += "}";
  }
  out += "]";
  close_ok(out, snap.epoch);
  return out;
}

/// The error that replaces a response one frame cannot carry.
std::string frame_limit_message(std::size_t response_bytes) {
  return "response of " + std::to_string(response_bytes) +
         " bytes exceeds the frame limit of " +
         std::to_string(kMaxFrameBytes) + " bytes";
}

std::string handle_quality_report(const ServeSnapshot& snap) {
  if (snap.quality_response.empty()) {
    throw RequestError(frame_limit_message(snap.quality_response_bytes));
  }
  return snap.quality_response;
}

/// Every storm's altitude-change samples, tagged with the storm's peak.
/// The storms are the pipeline's, the list storm_event_epochs filters; a
/// (storm, track) cell depends on that pair alone, so scanning one storm at
/// a time yields the same samples as any multi-storm scan.
std::vector<std::pair<double, double>> storm_altitude_changes(
    const core::CosmicDance& pipeline) {
  std::vector<std::pair<double, double>> changes;
  for (const spaceweather::StormEvent& storm : pipeline.storms()) {
    const double epoch_jd = timeutil::julian_from_hour_index(storm.peak_hour);
    for (const double change_km : pipeline.correlator().altitude_change_samples(
             pipeline.tracks(), {&epoch_jd, 1})) {
      changes.emplace_back(change_km, storm.peak_dst_nt);
    }
  }
  std::sort(changes.begin(), changes.end());
  return changes;
}

/// A snapshot ready to publish: its per-epoch results are built, inside
/// the phase serve.precompute, before any reader can see it.
std::shared_ptr<const ServeSnapshot> build_snapshot(std::uint64_t epoch,
                                                    core::CosmicDance pipeline) {
  const obs::ScopedPhase phase(pipeline.config().metrics, "serve.precompute");
  return std::make_shared<const ServeSnapshot>(epoch, std::move(pipeline));
}

}  // namespace

ServeSnapshot::ServeSnapshot(std::uint64_t epoch_number,
                             core::CosmicDance built)
    : epoch(epoch_number),
      pipeline(std::move(built)),
      dst_intensity(pipeline.dst().sorted_intensity()),
      storm_changes(storm_altitude_changes(pipeline)),
      latest(sgp4::BatchPropagator::from_catalog(pipeline.catalog())) {
  std::string response = open_ok(epoch, "quality_report");
  response += ",\"report\":";
  response += pipeline.quality_report().to_json();
  close_ok(response, epoch);
  quality_response_bytes = response.size();
  if (quality_response_bytes <= kMaxFrameBytes) {
    quality_response = std::move(response);
  }
}

Service::Service(core::CosmicDance initial, Rebuild rebuild,
                 obs::Metrics* metrics)
    : slot_(build_snapshot(1, std::move(initial))),
      rebuild_(std::move(rebuild)),
      metrics_(metrics) {
  requests_ = obs::counter_or_null(metrics_, "serve.requests");
  errors_ = obs::counter_or_null(metrics_, "serve.errors");
  reloads_ = obs::counter_or_null(metrics_, "serve.reloads");
}

std::shared_ptr<const ServeSnapshot> Service::snapshot() const {
  const std::lock_guard<std::mutex> lock(slot_mutex_);
  return slot_;
}

std::uint64_t Service::reload() {
  if (!rebuild_) return 0;
  const std::lock_guard<std::mutex> lock(reload_mutex_);
  core::CosmicDance fresh = rebuild_();  // may throw; old snapshot survives
  // Reloads are serialised, so the epoch read here is still current at the
  // swap below.
  std::shared_ptr<const ServeSnapshot> swapped =
      build_snapshot(snapshot()->epoch + 1, std::move(fresh));
  const std::uint64_t next_epoch = swapped->epoch;
  {
    const std::lock_guard<std::mutex> slot_lock(slot_mutex_);
    slot_.swap(swapped);
  }
  // `swapped` now holds the old snapshot: it is freed after the slot mutex
  // is released, here or by the last in-flight reader.
  obs::bump(reloads_);
  return next_epoch;
}

HandleResult Service::handle(std::string_view request) {
  obs::bump(requests_);
  HandleResult result;
  bool failed = false;
  try {
    result = route(request);
  } catch (const std::exception& error) {
    result = {error_response(error.what()), false};
    failed = true;
  }
  // One frame carries the whole response, and encode_frame refuses more
  // than kMaxFrameBytes, so such a response becomes an error the transport
  // can send.  (quality_report, the one op known to get there on a tolerant
  // run, answers the same error from its per-epoch size without building.)
  if (result.response.size() > kMaxFrameBytes) {
    result = {error_response(frame_limit_message(result.response.size())),
              false};
    failed = true;
  }
  if (failed) obs::bump(errors_);
  return result;
}

HandleResult Service::route(std::string_view request) {
  const auto parsed = parse_json(request);
  if (!parsed || parsed->kind != JsonValue::Kind::kObject) {
    throw RequestError("request must be a JSON object");
  }
  const JsonValue* op_value = parsed->find("op");
  if (op_value == nullptr || op_value->kind != JsonValue::Kind::kString) {
    throw RequestError("request is missing a string \"op\" field");
  }
  const std::string& op = op_value->text;

  if (op == "shutdown") {
    // No data in the response, so no epoch pair needed.
    return {"{\"ok\":true,\"op\":\"shutdown\"}", true};
  }
  if (op == "reload") {
    const std::uint64_t next_epoch = reload();
    if (next_epoch == 0) throw RequestError("reload is not configured");
    std::string out = open_ok(next_epoch, "reload");
    close_ok(out, next_epoch);
    return {std::move(out), false};
  }
  if (op == "metrics") {
    // Counters accumulate across snapshots, so the metrics view is not
    // tied to an epoch; embed the registry dump as-is.
    std::string out = "{\"ok\":true,\"op\":\"metrics\",\"metrics\":";
    out += metrics_ != nullptr ? metrics_->snapshot().to_json() : "null";
    out += "}";
    return {std::move(out), false};
  }

  // Data ops: load the snapshot pointer exactly once and build the whole
  // response from it, so a concurrent reload can never mix epochs.
  const std::shared_ptr<const ServeSnapshot> snap = snapshot();
  if (op == "ping") return {handle_ping(*snap), false};
  if (op == "stats") return {handle_stats(*snap), false};
  if (op == "sat_series") return {handle_sat_series(*snap, *parsed), false};
  if (op == "storm_summary") {
    return {handle_storm_summary(*snap, *parsed), false};
  }
  if (op == "envelope_cdf") {
    return {handle_envelope_cdf(*snap, *parsed), false};
  }
  if (op == "propagate") return {handle_propagate(*snap, *parsed), false};
  if (op == "decay_summary") {
    return {handle_decay_summary(*snap, *parsed), false};
  }
  if (op == "quality_report") return {handle_quality_report(*snap), false};
  throw RequestError("unknown op \"" + op + "\"");
}

}  // namespace cosmicdance::serve
