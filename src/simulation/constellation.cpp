#include "simulation/constellation.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <map>
#include <tuple>
#include <utility>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "atmosphere/drag.hpp"
#include "atmosphere/exponential.hpp"
#include "atmosphere/storm_density.hpp"
#include "common/error.hpp"
#include "common/units.hpp"
#include "exec/parallel_for.hpp"
#include "orbit/elements.hpp"
#include "simulation/tracking.hpp"
#include "timeutil/hour_axis.hpp"

namespace cosmicdance::simulation {
namespace {

double wrap_deg(double deg) noexcept {
  // A step moves an angle by less than a turn.  fmod is exact, so inside
  // [0, 720) it gives `deg` or `deg - 360` (exact by Sterbenz's lemma):
  // the same bits without the libm call.
  if (deg >= 0.0 && deg < 360.0) return deg;
  if (deg >= 360.0 && deg < 720.0) return deg - 360.0;
  double wrapped = std::fmod(deg, 360.0);
  if (wrapped < 0.0) wrapped += 360.0;
  return wrapped;
}

std::string designator_for(const timeutil::DateTime& launch, int batch_index,
                           int piece) {
  // e.g. "19074A" style: launch year + launch number + piece letters.  The
  // pieces run A..Z, then AA, AB, ... (bijective base 26), as the real
  // catalog continues past piece Z.
  std::string letters;
  for (int n = piece + 1; n > 0; n = (n - 1) / 26) {
    letters.insert(letters.begin(), static_cast<char>('A' + (n - 1) % 26));
  }
  char buffer[16];
  std::snprintf(buffer, sizeof(buffer), "%02d%03d%s", launch.year % 100,
                (batch_index % 999) + 1, letters.c_str());
  return buffer;
}

/// The run's time grid, built once and read by every satellite's task.
struct StepAxis {
  std::vector<double> jd;         ///< start, start + dt, ... while < end
  std::vector<double> dst_nt;     ///< the driving Dst at each step
  std::vector<char> record_truth; ///< the daily truth-sampling steps
  /// (step, forced-list index) of every forced failure the window holds,
  /// in step order, then list order.
  std::vector<std::pair<std::size_t, std::size_t>> forced;
};

StepAxis build_step_axis(const ConstellationConfig& config) {
  StepAxis axis;
  const double start_jd = timeutil::to_julian(config.start);
  const double end_jd = timeutil::to_julian(config.end);
  const double dt_days = config.step_hours / units::kHoursPerDay;

  // Accumulated, not indexed: the ground-truth digests pinned in
  // simulation2_test depend on these exact epoch bits.
  double last_truth_jd = start_jd - 1.0;
  for (double jd = start_jd; jd < end_jd; jd += dt_days) {
    double dst_nt = 0.0;
    if (config.dst != nullptr) {
      const timeutil::HourIndex hour = timeutil::hour_index_from_julian(jd);
      if (config.dst->covers(hour)) dst_nt = config.dst->at(hour);
    }
    const bool record_truth = config.record_truth && jd - last_truth_jd >= 1.0;
    if (record_truth) last_truth_jd = jd;
    axis.jd.push_back(jd);
    axis.dst_nt.push_back(dst_nt);
    axis.record_truth.push_back(record_truth ? 1 : 0);
  }

  // A forced failure fires in the step whose [jd, jd + dt) holds its time.
  for (std::size_t f = 0; f < config.forced_failures.size(); ++f) {
    const double at_jd = timeutil::to_julian(config.forced_failures[f].at);
    const auto after = std::upper_bound(axis.jd.begin(), axis.jd.end(), at_jd);
    if (after == axis.jd.begin()) continue;
    const auto step = static_cast<std::size_t>(after - axis.jd.begin()) - 1;
    if (at_jd < axis.jd[step] + dt_days) axis.forced.emplace_back(step, f);
  }
  std::sort(axis.forced.begin(), axis.forced.end());
  return axis;
}

/// A failure with its place among the failures of its step: a forced
/// failure's list index, or the list's size for an upset while stepping
/// (forced failures strike before the fleet steps).
struct RankedFailure {
  FailureRecord record;
  std::size_t rank = 0;
};

/// One launched satellite: its state, its own random streams and
/// everything its life adds to the result.  Its task writes nothing else.
struct Life {
  SatelliteState state;
  Rng rng;                   ///< manoeuvres, upsets, recoveries
  TrackingSimulator tracker; ///< observation noise and refresh cadence
  J2Drift drift;             ///< the inclination never changes
  double next_observation_jd = 0.0;
  std::size_t first_step = 0;
  std::vector<tle::Tle> history;
  std::vector<TruthSample> truth;
  std::vector<RankedFailure> failures;
};

/// Every batch due by the last step, launched in schedule order before any
/// satellite moves, so `rng`'s draws depend on the schedule alone.  Each
/// satellite's tracker is split from `tracker_root` in launch order.
std::vector<Life> launch_batches(const ConstellationConfig& config,
                                 const StepAxis& axis, Rng& rng,
                                 Rng& tracker_root) {
  std::vector<Life> lives;
  int next_catalog = config.first_catalog_number;
  for (std::size_t b = 0; b < config.launches.size(); ++b) {
    const LaunchBatch& batch = config.launches[b];
    const double launch_jd = timeutil::to_julian(batch.time);
    // A batch enters at the first step at or after its launch time.
    const auto first = std::lower_bound(axis.jd.begin(), axis.jd.end(), launch_jd);
    if (first == axis.jd.end()) break;  // later batches are later still
    if (batch.first_catalog_number > 0) next_catalog = batch.first_catalog_number;
    for (int piece = 0; piece < batch.count; ++piece) {
      SatelliteState satellite;
      satellite.catalog_number = next_catalog++;
      satellite.international_designator =
          designator_for(batch.time, static_cast<int>(b), piece);
      satellite.config = batch.satellite;
      satellite.mode = SatelliteMode::kStaging;
      satellite.altitude_km =
          batch.satellite.staging_altitude_km + rng.normal(0.0, 2.0);
      satellite.raan_deg = wrap_deg(batch.raan_deg + rng.normal(0.0, 0.3));
      satellite.arg_perigee_deg = rng.uniform(0.0, 360.0);
      // Spread the batch along the orbit.
      satellite.mean_anomaly_deg =
          wrap_deg(360.0 * piece / std::max(batch.count, 1) +
                   rng.normal(0.0, 1.0));
      satellite.launch_jd = launch_jd;
      satellite.staging_until_jd =
          launch_jd + batch.staging_days + rng.uniform(-5.0, 5.0);
      satellite.deorbit_after_jd =
          launch_jd + config.lifetime_years * 365.25 + rng.normal(0.0, 90.0);
      if (batch.prelaunched) {
        satellite.mode = SatelliteMode::kOperational;
        satellite.altitude_km = batch.satellite.target_altitude_km;
      }
      Rng satellite_rng = rng.split();
      // First observation lands shortly after launch.
      const double first_observation_jd = launch_jd + rng.uniform(0.05, 0.5);
      const J2Drift drift(satellite.config.inclination_deg);
      lives.push_back({std::move(satellite), satellite_rng,
                       TrackingSimulator(TrackingConfig{}, tracker_root.split()()),
                       drift, first_observation_jd,
                       static_cast<std::size_t>(first - axis.jd.begin()),
                       {}, {}, {}});
    }
  }
  return lives;
}

double density_ratio(const ConstellationConfig& config,
                     const SatelliteState& satellite, double jd) noexcept {
  // The observed drag proxy (B*) is fitted over a day-scale tracking arc and
  // the thermosphere stays expanded for hours after a storm peak, so expose
  // the worst enhancement over the trailing 24 hours rather than the
  // instantaneous value.
  if (config.dst == nullptr) return 1.0;
  const timeutil::HourIndex now = timeutil::hour_index_from_julian(jd);
  double worst = 1.0;
  for (timeutil::HourIndex hour = now - 24; hour <= now; ++hour) {
    if (!config.dst->covers(hour)) continue;
    worst = std::max(worst, atmosphere::storm_enhancement_factor(
                                satellite.altitude_km, config.dst->at(hour)));
  }
  return worst;
}

void step_satellite(const ConstellationConfig& config, Life& life, double jd,
                    double dst_nt) {
  SatelliteState& satellite = life.state;
  Rng& satellite_rng = life.rng;
  const double dt_hours = config.step_hours;
  const double dt_days = dt_hours / units::kHoursPerDay;
  const auto fail = [&](FailureKind kind) {
    life.failures.push_back({{satellite.catalog_number, jd, kind},
                             config.forced_failures.size()});
  };

  // ---- dynamics -----------------------------------------------------------
  // Controlled modes (staging hold, raising, station keeping, controlled
  // de-orbit) have electric propulsion dominating drag, so their altitude
  // follows the controller; only uncontrolled modes free-fall under drag.
  const double target = satellite.config.target_altitude_km;
  switch (satellite.mode) {
    case SatelliteMode::kStaging:
      // Held at the staging orbit during checkout.
      satellite.altitude_km = satellite.config.staging_altitude_km;
      if (jd >= satellite.staging_until_jd) satellite.mode = SatelliteMode::kRaising;
      break;
    case SatelliteMode::kRaising:
      satellite.altitude_km += kRaisingKmPerDay * dt_days;
      if (satellite.altitude_km >= target) {
        satellite.altitude_km = target;
        satellite.mode = SatelliteMode::kOperational;
      }
      break;
    case SatelliteMode::kOperational: {
      const double ratio =
          atmosphere::storm_enhancement_factor(satellite.altitude_km, dst_nt);
      const double rho = atmosphere::density_kg_m3(satellite.altitude_km) * ratio;
      satellite.altitude_km += atmosphere::circular_decay_rate_km_per_day(
                                   satellite.altitude_km, rho,
                                   satellite.ballistic_m2_kg()) *
                               dt_days;
      if (jd >= satellite.deorbit_after_jd) {
        satellite.mode = SatelliteMode::kDeorbiting;
      } else if (satellite.altitude_km < target - kDeadbandKm) {
        satellite.altitude_km +=
            std::min(kBoostKmPerDay * dt_days, target - satellite.altitude_km);
      } else if (satellite.altitude_km > target + kDeadbandKm) {
        // Station keeping works both ways: lower back after upward drift
        // (manoeuvre overshoot) so the shell assignment holds.
        satellite.altitude_km -=
            std::min(kBoostKmPerDay * dt_days, satellite.altitude_km - target);
      } else if (satellite_rng.bernoulli(config.maneuver_probability_per_day *
                                         dt_days)) {
        // Phasing / conjunction-avoidance manoeuvre: a small altitude nudge.
        satellite.altitude_km += std::clamp(
            satellite_rng.normal(0.0, kManeuverSigmaKm), -2.0, 2.0);
      }
      break;
    }
    case SatelliteMode::kOutage:
    case SatelliteMode::kDecaying: {
      const double ratio =
          atmosphere::storm_enhancement_factor(satellite.altitude_km, dst_nt);
      const double rho = atmosphere::density_kg_m3(satellite.altitude_km) * ratio;
      satellite.altitude_km += atmosphere::circular_decay_rate_km_per_day(
                                   satellite.altitude_km, rho,
                                   satellite.ballistic_m2_kg()) *
                               dt_days;
      if (satellite.mode == SatelliteMode::kOutage &&
          jd >= satellite.outage_until_jd) {
        satellite.mode = SatelliteMode::kRaising;
        if (satellite_rng.bernoulli(config.failures.retarget_probability)) {
          satellite.config.target_altitude_km -=
              satellite_rng.uniform(kRetargetMinKm, kRetargetMaxKm);
        }
      }
      break;
    }
    case SatelliteMode::kDeorbiting:
      satellite.altitude_km -= config.deorbit_km_per_day * dt_days;
      break;
    case SatelliteMode::kReentered:
      break;
  }

  if (satellite.altitude_km <= kReentryAltitudeKm &&
      satellite.mode != SatelliteMode::kReentered) {
    satellite.mode = SatelliteMode::kReentered;
    return;
  }

  // ---- element evolution (J2 secular + mean motion) -----------------------
  const J2Drift::Rates j2 = life.drift.at(satellite.altitude_km);
  satellite.raan_deg = wrap_deg(satellite.raan_deg + j2.raan_deg_per_day * dt_days);
  satellite.arg_perigee_deg =
      wrap_deg(satellite.arg_perigee_deg + j2.argp_deg_per_day * dt_days);
  satellite.mean_anomaly_deg = wrap_deg(
      satellite.mean_anomaly_deg +
      360.0 * orbit::mean_motion_from_altitude_km(satellite.altitude_km) * dt_days);

  // ---- storm-induced failures ---------------------------------------------
  const FailureModel& fm = config.failures;
  if (!fm.enabled || dst_nt > -fm.onset_nt) return;
  const double mitigation = fm.proactive_response ? kProactiveScale : 1.0;

  if (satellite.mode == SatelliteMode::kStaging ||
      satellite.mode == SatelliteMode::kRaising) {
    if (-dst_nt >= fm.staging_loss_onset_nt) {
      const double excess = (-dst_nt - fm.staging_loss_onset_nt) / 100.0;
      const double p = fm.staging_loss_scale * excess * mitigation * dt_hours;
      if (satellite_rng.bernoulli(p)) {
        satellite.mode = SatelliteMode::kDecaying;
        fail(FailureKind::kStagingReentry);
      }
    }
    return;
  }

  if (satellite.mode == SatelliteMode::kOperational) {
    const double excess = (-dst_nt - fm.onset_nt) / 100.0;
    if (excess <= 0.0) return;
    const double p =
        std::min(kUpsetRateScale * std::pow(excess, kUpsetExponent),
                 kMaxHourlyUpsetProbability) *
        mitigation * dt_hours;
    if (satellite_rng.bernoulli(p)) {
      if (satellite_rng.bernoulli(fm.permanent_fraction)) {
        satellite.mode = SatelliteMode::kDecaying;
        fail(FailureKind::kPermanentDecay);
      } else {
        satellite.mode = SatelliteMode::kOutage;
        satellite.outage_until_jd =
            jd + satellite_rng.exponential(kOutageMeanDays);
        fail(FailureKind::kTemporaryOutage);
      }
    }
  }
}

/// One satellite's whole life: from its launch step until it reenters or
/// the window ends.
void live(const ConstellationConfig& config, const StepAxis& axis, Life& life) {
  SatelliteState& satellite = life.state;
  auto forced = std::lower_bound(axis.forced.begin(), axis.forced.end(),
                                 std::pair<std::size_t, std::size_t>(life.first_step, 0));
  for (std::size_t step = life.first_step; step < axis.jd.size(); ++step) {
    const double jd = axis.jd[step];
    for (; forced != axis.forced.end() && forced->first == step; ++forced) {
      const ForcedFailure& failure = config.forced_failures[forced->second];
      if (failure.catalog_number != satellite.catalog_number) continue;
      switch (failure.kind) {
        case FailureKind::kTemporaryOutage:
          satellite.mode = SatelliteMode::kOutage;
          satellite.outage_until_jd = jd + failure.outage_days;
          break;
        case FailureKind::kPermanentDecay:
        case FailureKind::kStagingReentry:
          satellite.mode = SatelliteMode::kDecaying;
          break;
      }
      life.failures.push_back({{satellite.catalog_number, jd, failure.kind},
                               forced->second});
    }

    step_satellite(config, life, jd, axis.dst_nt[step]);
    if (!satellite.tracked()) return;

    if (jd >= life.next_observation_jd) {
      const double ratio = density_ratio(config, satellite, jd);
      const double rho = atmosphere::density_kg_m3(satellite.altitude_km) * ratio;
      const double decay = atmosphere::circular_decay_rate_km_per_day(
          satellite.altitude_km, rho, satellite.ballistic_m2_kg());
      life.history.push_back(life.tracker.observe(satellite, jd, ratio, decay));
      life.next_observation_jd = life.tracker.next_observation_jd(jd);
    }

    if (axis.record_truth[step] != 0) {
      life.truth.push_back({jd, satellite.altitude_km, satellite.mode,
                            density_ratio(config, satellite, jd)});
    }
  }
}

/// Every failure in step-major order: by step (the record's epoch), then
/// rank within the step, then satellite.  Each satellite's
/// failures are already in (step, rank) order, so a stable sort of their
/// concatenation in launch order breaks the remaining ties by satellite.
std::vector<FailureRecord> merge_failures(const std::vector<Life>& lives) {
  std::vector<RankedFailure> ranked;
  for (const Life& life : lives) {
    ranked.insert(ranked.end(), life.failures.begin(), life.failures.end());
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const RankedFailure& a, const RankedFailure& b) {
                     return std::tie(a.record.jd, a.rank) <
                            std::tie(b.record.jd, b.rank);
                   });
  std::vector<FailureRecord> failures;
  failures.reserve(ranked.size());
  for (const RankedFailure& failure : ranked) failures.push_back(failure.record);
  return failures;
}

/// One catalog number's per-satellite series as one: concatenated in
/// launch order, then stably sorted by time — (step, satellite) order,
/// the order add() would see them in stepping the fleet step by step.  A
/// lone satellite's series moves.
template <typename T>
std::vector<T> join_series(std::vector<Life>& lives,
                           const std::vector<std::size_t>& group,
                           std::vector<T> Life::*series, double T::*time) {
  if (group.size() == 1) return std::move(lives[group.front()].*series);
  std::vector<T> joined;
  for (const std::size_t i : group) {
    std::vector<T>& part = lives[i].*series;
    joined.insert(joined.end(), std::make_move_iterator(part.begin()),
                  std::make_move_iterator(part.end()));
  }
  std::stable_sort(joined.begin(), joined.end(),
                   [time](const T& a, const T& b) { return a.*time < b.*time; });
  return joined;
}

/// add()'s duplicate rule over an epoch-ordered history: a record inside
/// the duplicate window of the record kept before it is dropped.
void drop_duplicate_epochs(std::vector<tle::Tle>& history) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < history.size(); ++i) {
    if (kept > 0 &&
        history[i].epoch_jd - history[kept - 1].epoch_jd < tle::kDuplicateEpochDays) {
      continue;
    }
    if (kept != i) history[kept] = std::move(history[i]);
    ++kept;
  }
  history.erase(history.begin() + static_cast<std::ptrdiff_t>(kept), history.end());
}

/// The catalog and the truth, joined per catalog number.  A pinned batch
/// can give two satellites one number; their records then join into one
/// history, as add() would have merged them.
void join_catalog(std::vector<Life>& lives, SimulationResult& result,
                  int num_threads) {
  std::map<int, std::vector<std::size_t>> by_number;  // launch order within
  for (std::size_t i = 0; i < lives.size(); ++i) {
    by_number[lives[i].state.catalog_number].push_back(i);
  }
  std::vector<std::vector<tle::Tle>> histories;
  histories.reserve(by_number.size());
  for (const auto& [number, group] : by_number) {
    std::vector<tle::Tle> history =
        join_series(lives, group, &Life::history, &tle::Tle::epoch_jd);
    drop_duplicate_epochs(history);
    if (!history.empty()) histories.push_back(std::move(history));

    std::vector<TruthSample> truth =
        join_series(lives, group, &Life::truth, &TruthSample::jd);
    if (!truth.empty()) result.truth.emplace(number, std::move(truth));
  }
  result.catalog.adopt_histories(std::move(histories), num_threads);
#if defined(__GLIBC__)
  // The histories were freed into the workers' heap arenas, which keep the
  // pages; hand them back, or the catalog's columns (and the text a caller
  // writes next) sit on top of a whole catalog of freed records.
  malloc_trim(0);
#endif
}

}  // namespace

ConstellationSimulator::ConstellationSimulator(ConstellationConfig config)
    : config_(std::move(config)) {
  if (config_.step_hours <= 0.0) {
    throw ValidationError("simulation step must be positive");
  }
  if (timeutil::hours_between(config_.start, config_.end) <= 0.0) {
    throw ValidationError("simulation end must come after its start");
  }
  std::sort(config_.launches.begin(), config_.launches.end(),
            [](const LaunchBatch& a, const LaunchBatch& b) {
              return timeutil::to_julian(a.time) < timeutil::to_julian(b.time);
            });
}

SimulationResult ConstellationSimulator::run(int num_threads) const {
  Rng rng(config_.seed);
  Rng tracker_root(rng.split()());
  const StepAxis axis = build_step_axis(config_);
  std::vector<Life> lives = launch_batches(config_, axis, rng, tracker_root);

  exec::parallel_for(lives.size(), num_threads,
                     [&](std::size_t begin, std::size_t end) {
                       for (std::size_t i = begin; i < end; ++i) {
                         live(config_, axis, lives[i]);
                       }
                     });

  SimulationResult result;
  result.launched = static_cast<int>(lives.size());
  for (const Life& life : lives) {
    if (life.state.tracked()) {
      ++result.tracked_at_end;
    } else {
      ++result.reentered;
    }
  }
  result.failures = merge_failures(lives);
  join_catalog(lives, result, num_threads);
  return result;
}

}  // namespace cosmicdance::simulation
