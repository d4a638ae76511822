// Full-state propagation analysis: the workload the paper could not run
// from mean motion alone (ROADMAP item 1).
//
// propagate_catalog takes each satellite's latest TLE, sweeps the whole
// fleet across a shared epoch grid with sgp4::BatchPropagator, and reduces
// the states to the decay observables: a geocentric altitude series per
// satellite and a least-squares decay-rate estimate (km/day) over the valid
// samples.  Output is bit-identical at any num_threads value (the batch
// engine's determinism contract, DESIGN.md §16).
#pragma once

#include <cstddef>
#include <vector>

#include "sgp4/batch.hpp"
#include "tle/catalog.hpp"

namespace cosmicdance::obs {
class Metrics;
}  // namespace cosmicdance::obs

namespace cosmicdance::core {

struct PropagationOptions {
  /// Grid bounds (UTC Julian dates) and spacing: make_grid(start_jd,
  /// end_jd, step_hours).
  double start_jd = 0.0;
  double end_jd = 0.0;
  double step_hours = 24.0;
  /// Worker count (exec convention: 0 = all hardware threads, 1 = serial).
  int num_threads = 0;
  obs::Metrics* metrics = nullptr;
};

/// One satellite's propagated decay observables.
struct PropagationSeries {
  int catalog_number = 0;
  double tle_epoch_jd = 0.0;
  bool deep_space = false;
  /// Geocentric altitude (|r| − Earth equatorial radius, km) per grid
  /// epoch; NaN where propagation failed (see statuses).
  std::vector<double> altitude_km;
  std::vector<sgp4::Sgp4Status> statuses;
  std::size_t valid_samples = 0;
  /// Least-squares slope of altitude vs time (km/day) over the valid
  /// samples; 0 when fewer than two are valid (decaying orbits go
  /// negative).
  double decay_rate_km_per_day = 0.0;
  /// First/last valid altitude on the grid (NaN when none).
  double first_altitude_km = 0.0;
  double last_altitude_km = 0.0;
  /// True when any grid cell returned kDecayed (predicted reentry inside
  /// the window).
  bool decayed = false;
};

struct PropagationReport {
  std::vector<double> epochs_jd;           ///< the shared grid, ascending
  std::vector<PropagationSeries> series;   ///< ascending catalog number
  std::size_t ok_cells = 0;
  std::size_t decayed_cells = 0;
  std::size_t error_cells = 0;             ///< non-kOk, non-kDecayed
  std::vector<sgp4::BatchInitFailure> init_failures;
};

/// Ascending epoch grid over [start_jd, end_jd] in step_hours increments
/// (index-scaled, so the grid is exact at any length and never overshoots).
/// Throws ValidationError for a non-positive step or an inverted window.
[[nodiscard]] std::vector<double> make_grid(double start_jd, double end_jd,
                                            double step_hours);

/// Propagate every satellite's latest TLE across the options' epoch grid.
/// Throws ValidationError when the options are degenerate (non-positive
/// step, end before start).
[[nodiscard]] PropagationReport propagate_catalog(
    const tle::TleCatalog& catalog, const PropagationOptions& options);

/// The reentry-risk shortlist: series with at least two valid samples,
/// most negative decay rate first (ties by catalog number), cut to `top`.
/// The CLI's propagate table and the daemon's decay_summary op both print
/// it.  The pointers point into `report`.
[[nodiscard]] std::vector<const PropagationSeries*> fastest_decaying(
    const PropagationReport& report, std::size_t top);

/// The per-satellite reduction used by propagate_catalog, exposed for
/// callers that already hold a BatchPropagator (the serving layer).
[[nodiscard]] PropagationReport reduce_batch(
    const sgp4::BatchPropagator& batch, std::vector<double> epochs_jd,
    int num_threads, obs::Metrics* metrics);

}  // namespace cosmicdance::core
