#include "core/propagation.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/units.hpp"
#include "obs/obs.hpp"
#include "orbit/constants.hpp"
#include "orbit/state.hpp"

namespace cosmicdance::core {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

/// Least-squares slope of (t_days, altitude) over the valid samples.
double decay_slope_km_per_day(const std::vector<double>& epochs_jd,
                              const std::vector<double>& altitude_km) {
  double n = 0.0, sum_t = 0.0, sum_a = 0.0, sum_tt = 0.0, sum_ta = 0.0;
  const double t0 = epochs_jd.empty() ? 0.0 : epochs_jd.front();
  for (std::size_t i = 0; i < altitude_km.size(); ++i) {
    if (std::isnan(altitude_km[i])) continue;
    const double t = epochs_jd[i] - t0;
    n += 1.0;
    sum_t += t;
    sum_a += altitude_km[i];
    sum_tt += t * t;
    sum_ta += t * altitude_km[i];
  }
  if (n < 2.0) return 0.0;
  const double denom = n * sum_tt - sum_t * sum_t;
  if (denom == 0.0) return 0.0;  // all valid samples at one grid epoch
  return (n * sum_ta - sum_t * sum_a) / denom;
}

}  // namespace

std::vector<double> make_grid(double start_jd, double end_jd,
                              double step_hours) {
  if (!(step_hours > 0.0)) {
    throw ValidationError("propagation step_hours must be positive");
  }
  if (end_jd < start_jd) {
    throw ValidationError("propagation window ends before it starts");
  }
  const double step_days = step_hours / units::kHoursPerDay;
  // A NaN or infinite bound, or a step too fine for its window, has no
  // epoch count to cast (and would never end the loop below).
  const double steps = (end_jd - start_jd) / step_days;
  if (!(steps < static_cast<double>(std::numeric_limits<std::size_t>::max()))) {
    throw ValidationError("propagation grid has no finite epoch count");
  }
  std::vector<double> epochs;
  epochs.reserve(static_cast<std::size_t>(steps) + 1);
  // Index-scaled (not accumulated) steps so the grid is exact for any
  // length and the last epoch never overshoots the window.
  for (std::size_t i = 0;; ++i) {
    const double jd = start_jd + static_cast<double>(i) * step_days;
    if (jd > end_jd) break;
    epochs.push_back(jd);
  }
  return epochs;
}

PropagationReport reduce_batch(const sgp4::BatchPropagator& batch,
                               std::vector<double> epochs_jd, int num_threads,
                               obs::Metrics* metrics) {
  const obs::ScopedPhase phase(metrics, "analysis.propagate");

  const sgp4::BatchResult grid =
      batch.propagate_jd(epochs_jd, num_threads, metrics);

  PropagationReport report;
  report.epochs_jd = std::move(epochs_jd);
  report.init_failures = batch.init_failures();
  report.series.resize(grid.rows);
  for (std::size_t row = 0; row < grid.rows; ++row) {
    PropagationSeries& series = report.series[row];
    series.catalog_number = batch.catalog_number(row);
    series.tle_epoch_jd = batch.epoch_jd(row);
    series.deep_space = batch.deep_space(row);
    series.altitude_km.resize(grid.epochs, kNan);
    series.statuses.resize(grid.epochs);
    series.first_altitude_km = kNan;
    series.last_altitude_km = kNan;
    for (std::size_t e = 0; e < grid.epochs; ++e) {
      const sgp4::Sgp4Status status = grid.status(row, e);
      series.statuses[e] = status;
      switch (status) {
        case sgp4::Sgp4Status::kOk:
          break;
        case sgp4::Sgp4Status::kDecayed:
          series.decayed = true;
          ++report.decayed_cells;
          continue;
        default:
          ++report.error_cells;
          continue;
      }
      ++report.ok_cells;
      const orbit::StateVector& state = grid.state(row, e);
      const double altitude =
          orbit::norm(state.position_km) - orbit::wgs72().radius_earth_km;
      series.altitude_km[e] = altitude;
      ++series.valid_samples;
      if (std::isnan(series.first_altitude_km)) {
        series.first_altitude_km = altitude;
      }
      series.last_altitude_km = altitude;
    }
    series.decay_rate_km_per_day =
        decay_slope_km_per_day(report.epochs_jd, series.altitude_km);
  }
  return report;
}

PropagationReport propagate_catalog(const tle::TleCatalog& catalog,
                                    const PropagationOptions& options) {
  std::vector<double> epochs =
      make_grid(options.start_jd, options.end_jd, options.step_hours);
  const sgp4::BatchPropagator batch = sgp4::BatchPropagator::from_catalog(catalog);
  return reduce_batch(batch, std::move(epochs), options.num_threads,
                      options.metrics);
}

std::vector<const PropagationSeries*> fastest_decaying(
    const PropagationReport& report, std::size_t top) {
  std::vector<const PropagationSeries*> ranked;
  ranked.reserve(report.series.size());
  for (const auto& series : report.series) {
    if (series.valid_samples >= 2) ranked.push_back(&series);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto* a, const auto* b) {
    if (a->decay_rate_km_per_day != b->decay_rate_km_per_day) {
      return a->decay_rate_km_per_day < b->decay_rate_km_per_day;
    }
    return a->catalog_number < b->catalog_number;
  });
  if (ranked.size() > top) ranked.resize(top);
  return ranked;
}

}  // namespace cosmicdance::core
