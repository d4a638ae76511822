#include "core/correlator.hpp"

#include "spaceweather/gscale.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "exec/parallel_for.hpp"
#include "obs/obs.hpp"
#include "stats/descriptive.hpp"
#include "timeutil/hour_axis.hpp"

namespace cosmicdance::core {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

/// Hoisted per-scan counter handles (one registry lookup per scan, one
/// relaxed atomic add per cell when enabled, nothing when disabled).
struct CellCounters {
  obs::Counter* evaluated = nullptr;
  obs::Counter* skipped_predecayed = nullptr;
  obs::Counter* skipped_no_pre = nullptr;
  obs::Counter* skipped_empty_window = nullptr;

  explicit CellCounters(obs::Metrics* metrics)
      : evaluated(obs::counter_or_null(metrics, "correlator.cells")),
        skipped_predecayed(
            obs::counter_or_null(metrics, "correlator.cells_skipped_predecayed")),
        skipped_no_pre(
            obs::counter_or_null(metrics, "correlator.cells_skipped_no_pre")),
        skipped_empty_window(obs::counter_or_null(
            metrics, "correlator.cells_skipped_empty_window")) {}
};

}  // namespace

EventCorrelator::EventCorrelator(const spaceweather::DstIndex* dst,
                                 double predecay_threshold_km, int num_threads,
                                 obs::Metrics* metrics)
    : dst_(dst),
      predecay_threshold_km_(predecay_threshold_km),
      num_threads_(num_threads),
      metrics_(metrics) {
  if (dst_ == nullptr) throw ValidationError("correlator requires a Dst series");
}

PostEventEnvelope EventCorrelator::post_event_envelope(
    std::span<const SatelliteTrack> tracks, double event_jd, int days,
    EnvelopeSelection selection) const {
  if (days <= 0) throw ValidationError("envelope window must be positive");
  const obs::ScopedPhase phase(metrics_, "correlator.envelope");
  PostEventEnvelope envelope;
  envelope.event_jd = event_jd;
  envelope.days = days;

  // One worker per track; a track's per-day profile depends only on that
  // track, so assembling the results in track order reproduces the serial
  // loop exactly.
  const CellCounters cells(metrics_);
  struct TrackProfile {
    bool selected = false;
    int catalog_number = 0;
    std::vector<double> profile;
  };
  auto profiles = exec::ordered_map<TrackProfile>(
      tracks.size(), num_threads_,
      [&](std::size_t t) {
        TrackProfile result;
        const SatelliteTrack& track = tracks[t];
        obs::bump(cells.evaluated);
        if (is_pre_decayed(track, event_jd, predecay_threshold_km_)) {
          obs::bump(cells.skipped_predecayed);
          return result;
        }
        const TrajectorySample* pre = track.at_or_before(event_jd);
        // is_pre_decayed currently rejects tracks with no pre-event sample,
        // but that is its policy, not this scan's invariant: guard locally
        // so a change to the cleaning rules can never turn this into a null
        // dereference.
        if (pre == nullptr) {
          obs::bump(cells.skipped_no_pre);
          return result;
        }
        const auto window = track.between(event_jd, event_jd + days);
        if (window.empty()) {
          obs::bump(cells.skipped_empty_window);
          return result;
        }

        // Per-day |altitude - pre| profile.
        std::vector<double> profile(static_cast<std::size_t>(days), kNan);
        for (const TrajectorySample& sample : window) {
          const auto day = static_cast<std::size_t>(sample.epoch_jd - event_jd);
          if (day >= profile.size()) continue;
          const double deviation =
              std::fabs(sample.altitude_km - pre->altitude_km);
          // Keep the day's largest deviation (conservative per-day summary).
          if (!std::isfinite(profile[day]) || deviation > profile[day]) {
            profile[day] = deviation;
          }
        }
        // Forward-fill days without a TLE: the altitude persists between
        // records (refresh gaps reach 154 h), so the last known deviation is
        // the best per-day estimate and keeps the daily aggregates from being
        // dominated by whichever satellites happened to be observed that day.
        for (std::size_t day = 1; day < profile.size(); ++day) {
          if (!std::isfinite(profile[day]) && std::isfinite(profile[day - 1])) {
            profile[day] = profile[day - 1];
          }
        }

        if (selection == EnvelopeSelection::kAffectedHumped) {
          // The Fig 4a rule on |altitude - long-term median|.
          const double long_term = track.median_altitude_km();
          std::vector<double> diffs;
          diffs.reserve(window.size());
          for (const TrajectorySample& sample : window) {
            diffs.push_back(std::fabs(sample.altitude_km - long_term));
          }
          const double window_median = stats::median(diffs);
          const double first_diff = diffs.front();
          const double last_diff = diffs.back();
          if (!(window_median > first_diff && window_median > last_diff &&
                window_median >= kHumpedMinExcursionKm)) {
            return result;
          }
        }

        result.selected = true;
        result.catalog_number = track.catalog_number();
        result.profile = std::move(profile);
        return result;
      },
      metrics_);
  obs::Counter* selected =
      obs::counter_or_null(metrics_, "correlator.envelope_selected");
  for (TrackProfile& result : profiles) {
    if (!result.selected) continue;
    obs::bump(selected);
    envelope.satellites.push_back(result.catalog_number);
    envelope.per_satellite.push_back(std::move(result.profile));
  }

  envelope.median_km.assign(static_cast<std::size_t>(days), kNan);
  envelope.p95_km.assign(static_cast<std::size_t>(days), kNan);
  // Each day aggregates a disjoint output slot, so days parallelise freely.
  exec::parallel_for(
      static_cast<std::size_t>(days), num_threads_,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t d = begin; d < end; ++d) {
          std::vector<double> day_values;
          for (const auto& profile : envelope.per_satellite) {
            const double v = profile[d];
            if (std::isfinite(v)) day_values.push_back(v);
          }
          if (day_values.empty()) continue;
          envelope.median_km[d] = stats::median(day_values);
          envelope.p95_km[d] = stats::percentile(day_values, 95.0);
        }
      },
      metrics_);
  return envelope;
}

ChangeSamples EventCorrelator::scan_cells(std::span<const SatelliteTrack> tracks,
                                          std::span<const double> event_jds,
                                          bool drag) const {
  if (tracks.empty() || event_jds.empty()) return {};
  const obs::ScopedPhase phase(metrics_, "correlator.altitude_scan");
  const CellCounters counters(metrics_);
  // Flatten the event-major serial loop into (event, track) cells: each
  // cell computes independently and the filtered concatenation below keeps
  // the serial push_back order.
  struct Cell {
    double altitude_km = 0.0;
    double drag_ratio = 0.0;
    bool has_altitude = false;
    bool has_drag = false;
  };
  const auto cells = exec::ordered_map<Cell>(
      event_jds.size() * tracks.size(), num_threads_,
      [&](std::size_t i) {
        Cell cell;
        const double event_jd = event_jds[i / tracks.size()];
        const SatelliteTrack& track = tracks[i % tracks.size()];
        obs::bump(counters.evaluated);
        if (is_pre_decayed(track, event_jd, predecay_threshold_km_)) {
          obs::bump(counters.skipped_predecayed);
          return cell;
        }
        const TrajectorySample* pre = track.at_or_before(event_jd);
        // Guard even though is_pre_decayed rejects sample-free prefixes
        // today; see post_event_envelope.
        if (pre == nullptr) {
          obs::bump(counters.skipped_no_pre);
          return cell;
        }
        const auto window = track.between(event_jd, event_jd + kEventWindowDays);
        if (window.empty()) {
          obs::bump(counters.skipped_empty_window);
          return cell;
        }
        double max_deviation = 0.0;
        double max_bstar = 0.0;
        for (const TrajectorySample& sample : window) {
          max_deviation = std::max(max_deviation,
                                   std::fabs(sample.altitude_km - pre->altitude_km));
          if (drag) max_bstar = std::max(max_bstar, sample.bstar);
        }
        cell.altitude_km = max_deviation;
        cell.has_altitude = true;
        if (drag && pre->bstar > 0.0 && max_bstar > 0.0) {
          cell.drag_ratio = max_bstar / pre->bstar;
          cell.has_drag = true;
        }
        return cell;
      },
      metrics_);
  ChangeSamples samples;
  for (const Cell& cell : cells) {
    if (cell.has_altitude) samples.altitude_km.push_back(cell.altitude_km);
    if (cell.has_drag) samples.drag_ratio.push_back(cell.drag_ratio);
  }
  if (metrics_ != nullptr) {
    metrics_->counter("correlator.samples")
        .add(samples.altitude_km.size() + samples.drag_ratio.size());
  }
  return samples;
}

ChangeSamples EventCorrelator::change_samples(
    std::span<const SatelliteTrack> tracks,
    std::span<const double> event_jds) const {
  return scan_cells(tracks, event_jds, /*drag=*/true);
}

std::vector<double> EventCorrelator::altitude_change_samples(
    std::span<const SatelliteTrack> tracks,
    std::span<const double> event_jds) const {
  return scan_cells(tracks, event_jds, /*drag=*/false).altitude_km;
}

std::vector<double> EventCorrelator::drag_change_samples(
    std::span<const SatelliteTrack> tracks,
    std::span<const double> event_jds) const {
  return change_samples(tracks, event_jds).drag_ratio;
}

std::vector<double> EventCorrelator::storm_event_epochs(double max_peak_nt) const {
  std::vector<double> epochs;
  const spaceweather::StormDetector detector;
  for (const spaceweather::StormEvent& event : detector.detect(*dst_)) {
    if (event.peak_dst_nt <= max_peak_nt) {
      epochs.push_back(timeutil::julian_from_hour_index(event.peak_hour));
    }
  }
  return epochs;
}

std::pair<std::vector<double>, std::vector<double>>
EventCorrelator::storm_epochs_by_duration(double max_peak_nt,
                                          double split_hours) const {
  std::pair<std::vector<double>, std::vector<double>> result;
  const spaceweather::StormDetector detector;
  for (const spaceweather::StormEvent& event : detector.detect(*dst_)) {
    if (event.peak_dst_nt > max_peak_nt) continue;
    const double epoch = timeutil::julian_from_hour_index(event.peak_hour);
    if (static_cast<double>(event.duration_hours()) < split_hours) {
      result.first.push_back(epoch);
    } else {
      result.second.push_back(epoch);
    }
  }
  return result;
}

std::vector<double> EventCorrelator::quiet_epochs(double min_dst_nt,
                                                  std::size_t count,
                                                  double guard_days) const {
  std::vector<double> epochs;
  if (count == 0) return epochs;
  const auto guard = static_cast<timeutil::HourIndex>(guard_days * 24.0);
  const timeutil::HourIndex start = dst_->start_hour() + guard;
  const timeutil::HourIndex end = dst_->end_hour() - guard;
  if (end <= start) return epochs;
  // Deterministic stride scan: probe evenly spaced candidate hours and keep
  // those that are quiet themselves with no storm in the guard window.
  const timeutil::HourIndex stride =
      std::max<timeutil::HourIndex>((end - start) / (4 * static_cast<long>(count)), 1);
  for (timeutil::HourIndex hour = start; hour < end && epochs.size() < count;
       hour += stride) {
    if (dst_->at(hour) <= min_dst_nt) continue;
    bool quiet = true;
    for (timeutil::HourIndex probe = hour - guard; probe < hour + guard; ++probe) {
      if (dst_->at(probe) <= spaceweather::kMinorThresholdNt) {
        quiet = false;
        break;
      }
    }
    if (quiet) epochs.push_back(timeutil::julian_from_hour_index(hour));
  }
  return epochs;
}

}  // namespace cosmicdance::core
