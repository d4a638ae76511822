// The "happens closely after" correlator — the paper's central device.
//
// CosmicDance never claims causality outright: it orders solar events and
// trajectory events in time and aggregates what happens to satellites in a
// bounded window *closely after* each event, excluding satellites that were
// already decaying (circumstantial evidence, §5).
#pragma once

#include <span>
#include <vector>

#include "core/cleaning.hpp"
#include "core/track.hpp"
#include "spaceweather/dst_index.hpp"
#include "spaceweather/storms.hpp"

namespace cosmicdance::obs {
class Metrics;
}  // namespace cosmicdance::obs

namespace cosmicdance::core {

/// Post-event observation window (paper: 30 days for Fig 4a, 15 for 4b).
constexpr double kEventWindowDays = 30.0;
/// The Fig 4a "affected" rule compares the window-median deviation against
/// the endpoints; on top of that, the deviation must clear this floor so
/// the strict-inequality test is not satisfied by tracker noise alone
/// (implementation choice; the paper's CSpOC data has its own noise floor).
constexpr double kHumpedMinExcursionKm = 2.0;

/// Per-day post-event altitude-deviation envelope (Fig 4).
struct PostEventEnvelope {
  double event_jd = 0.0;
  int days = 0;
  std::vector<int> satellites;  ///< catalog numbers that passed selection
  /// per_satellite[s][d] = |altitude(day d) - pre-event altitude| (km), or
  /// NaN when the satellite has no sample on that day.
  std::vector<std::vector<double>> per_satellite;
  std::vector<double> median_km;  ///< per-day median across satellites
  std::vector<double> p95_km;    ///< per-day 95th percentile
};

/// How Fig 4a selects its satellites (paper wording): keep a satellite when
/// the median of its |altitude - long-term-median| over the window exceeds
/// both the deviation immediately after the event and the deviation at the
/// window's end (i.e. a humped, non-monotonic excursion; permanent decays
/// and unaffected satellites both fail this test).
enum class EnvelopeSelection {
  kAffectedHumped,  ///< Fig 4a rule above
  kAll,             ///< every satellite passing the pre-decay filter (Fig 4b)
};

/// What one (event, satellite) cell scan yields; see change_samples.
struct ChangeSamples {
  std::vector<double> altitude_km;
  std::vector<double> drag_ratio;
};

class EventCorrelator {
 public:
  /// `dst` is non-owning and must outlive the correlator.
  /// `predecay_threshold_km` is is_pre_decayed's threshold for every scan.
  /// `num_threads` runs the per-satellite scans (0 = all hardware threads,
  /// 1 = serial); results are identical for every value — see the
  /// exec::parallel_for ordering contract.  `metrics` (optional,
  /// non-owning) records the scans' cell counters and phase wall times.
  explicit EventCorrelator(const spaceweather::DstIndex* dst,
                           double predecay_threshold_km = kPredecayThresholdKm,
                           int num_threads = 1, obs::Metrics* metrics = nullptr);

  /// Post-event deviation envelope over `days` days after `event_jd`.
  [[nodiscard]] PostEventEnvelope post_event_envelope(
      std::span<const SatelliteTrack> tracks, double event_jd, int days,
      EnvelopeSelection selection) const;

  /// Both samples of one scan over the (event, satellite) cells, event-major
  /// in track order.  A cell counts once in the correlator.* counters and
  /// is skipped when the satellite was pre-decayed at the event, has no
  /// pre-event sample or no sample in the window; otherwise it yields
  ///  - altitude_km: the maximum |altitude - pre-event altitude| (km) within
  ///    the kEventWindowDays window (Fig 5a/b);
  ///  - drag_ratio, when the pre-event B* and the window's maximum B* are
  ///    positive: that maximum over the pre-event B* (the drag-change
  ///    factor; 1 = unchanged; Fig 5c).
  /// Wall time lands in phase correlator.altitude_scan.
  [[nodiscard]] ChangeSamples change_samples(
      std::span<const SatelliteTrack> tracks,
      std::span<const double> event_jds) const;

  /// change_samples(tracks, event_jds).altitude_km, without the drag
  /// ratios.
  [[nodiscard]] std::vector<double> altitude_change_samples(
      std::span<const SatelliteTrack> tracks,
      std::span<const double> event_jds) const;

  /// change_samples(tracks, event_jds).drag_ratio.
  [[nodiscard]] std::vector<double> drag_change_samples(
      std::span<const SatelliteTrack> tracks,
      std::span<const double> event_jds) const;

  /// Peak-hour epochs (JD) of the default StormDetector's storms (the list
  /// CosmicDance::storms() returns) with peak at or below `max_peak_nt`.
  [[nodiscard]] std::vector<double> storm_event_epochs(double max_peak_nt) const;

  /// storm_event_epochs(max_peak_nt), partitioned by duration: first =
  /// events shorter than `split_hours`, second = the rest (Fig 6).
  [[nodiscard]] std::pair<std::vector<double>, std::vector<double>>
  storm_epochs_by_duration(double max_peak_nt, double split_hours) const;

  /// Deterministically-sampled quiet epochs ("epoch set with no storms
  /// around", Fig 5a): the hour's own Dst stays above `min_dst_nt` (e.g.
  /// the 80th-ptile threshold) and no hour within +-guard_days crosses the
  /// minor-storm threshold (-50 nT).
  [[nodiscard]] std::vector<double> quiet_epochs(double min_dst_nt,
                                                 std::size_t count,
                                                 double guard_days = 2.0) const;

 private:
  /// The change_samples scan; without `drag` its drag_ratio stays empty.
  [[nodiscard]] ChangeSamples scan_cells(std::span<const SatelliteTrack> tracks,
                                         std::span<const double> event_jds,
                                         bool drag) const;

  const spaceweather::DstIndex* dst_;
  double predecay_threshold_km_;
  int num_threads_;
  obs::Metrics* metrics_;
};

}  // namespace cosmicdance::core
