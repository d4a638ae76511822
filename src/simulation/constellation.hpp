// Constellation simulator: ground-truth orbital dynamics under storm-coupled
// drag, satellite lifecycle management, failure injection and TLE emission.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "simulation/launch_plan.hpp"
#include "simulation/satellite.hpp"
#include "spaceweather/dst_index.hpp"
#include "tle/catalog.hpp"

namespace cosmicdance::simulation {

/// What kind of storm-induced upset hit a satellite.
enum class FailureKind {
  kTemporaryOutage,   ///< loses station keeping, recovers after a while
  kPermanentDecay,    ///< loses station keeping permanently
  kStagingReentry,    ///< drag overwhelms a staging/raising satellite
};

/// A failure scripted to happen at an exact time (used to reproduce the
/// paper's cherry-picked Fig 3 satellites deterministically).
struct ForcedFailure {
  int catalog_number = 0;
  timeutil::DateTime at;
  FailureKind kind = FailureKind::kPermanentDecay;
  double outage_days = 20.0;  ///< for kTemporaryOutage
};

/// Hourly upset probability scales as
///   kUpsetRateScale * max(0, (-dst - onset_nt) / 100)^kUpsetExponent
inline constexpr double kUpsetExponent = 1.5;
inline constexpr double kUpsetRateScale = 8.0e-2;
/// Saturation: hourly upset probability never exceeds this, so even a
/// Carrington-scale driver upsets a fraction of the fleet per hour rather
/// than everything at once.
inline constexpr double kMaxHourlyUpsetProbability = 0.03;
/// Temporary outage duration: exponential with this mean (days).
inline constexpr double kOutageMeanDays = 18.0;
/// A re-targeted satellite's shell moves down by U(min, max) km.
inline constexpr double kRetargetMinKm = 3.0;
inline constexpr double kRetargetMaxKm = 12.0;
/// Operator mitigation scales all upset probabilities by this factor.
inline constexpr double kProactiveScale = 0.01;

/// Storm-response / failure model parameters.
struct FailureModel {
  bool enabled = true;
  /// Dst onset (nT below zero) of the hourly upset probability.
  double onset_nt = 70.0;
  /// Of upsets on operational satellites: fraction that decay permanently
  /// (the rest are temporary outages).  Calibrated so "significantly larger
  /// (10s of km)" shifts stay at the paper's ~1% tail.
  double permanent_fraction = 0.10;
  /// After recovering from an outage, probability the operator re-targets
  /// the satellite a few km lower (shell reassignment after an anomaly) —
  /// the long-term orbital shifts the paper's Fig 4a tail hints at.
  double retarget_probability = 0.3;
  /// Staging/raising satellites: hourly reentry-spiral probability,
  /// staging_loss_scale * (-dst - onset)/100 per hour (the Feb 2022 loss
  /// mechanism; significant only for deep storms at low staging orbits).
  double staging_loss_scale = 0.015;
  double staging_loss_onset_nt = 85.0;
  /// Operator mitigation (Starlink's May-2024 posture): scales all upset
  /// probabilities down by kProactiveScale.
  bool proactive_response = false;
};

/// One failure that actually happened during a run.
struct FailureRecord {
  int catalog_number = 0;
  double jd = 0.0;
  FailureKind kind = FailureKind::kTemporaryOutage;
};

/// Daily ground-truth sample kept for validation and for Fig 3/Fig 9-style
/// truth comparisons.
struct TruthSample {
  double jd = 0.0;
  double altitude_km = 0.0;
  SatelliteMode mode = SatelliteMode::kOperational;
  double density_ratio = 1.0;
};

// Station keeping: an operational satellite is boosted (or lowered) at
// kBoostKmPerDay once it leaves target +/- kDeadbandKm.
inline constexpr double kDeadbandKm = 1.0;
inline constexpr double kBoostKmPerDay = 1.5;
/// 1-sigma altitude nudge of a phasing / conjunction-avoidance manoeuvre.
inline constexpr double kManeuverSigmaKm = 0.6;
/// Electric-propulsion orbit raising from staging to the target shell.
inline constexpr double kRaisingKmPerDay = 2.0;
/// A satellite at or below this altitude has reentered.
inline constexpr double kReentryAltitudeKm = 200.0;

struct ConstellationConfig {
  std::uint64_t seed = 1;
  timeutil::DateTime start{2019, 11, 11, 0, 0, 0.0};
  timeutil::DateTime end{2024, 5, 7, 0, 0, 0.0};
  double step_hours = 1.0;

  /// Hourly Dst series driving the storm response (non-owning; may be null
  /// for a permanently quiet run).
  const spaceweather::DstIndex* dst = nullptr;

  std::vector<LaunchBatch> launches;
  int first_catalog_number = 44713;  ///< Starlink L1's real range starts here

  // Lifecycle.
  /// Operational satellites occasionally manoeuvre (phasing, conjunction
  /// avoidance): small altitude adjustments at this daily probability.
  double maneuver_probability_per_day = 0.03;
  double deorbit_km_per_day = 3.0;
  double lifetime_years = 5.0;

  FailureModel failures;
  std::vector<ForcedFailure> forced_failures;

  /// Keep a daily ground-truth sample per satellite (costs memory).
  bool record_truth = false;
};

/// Result of a full run.
struct SimulationResult {
  tle::TleCatalog catalog;                ///< everything the trackers saw
  std::map<int, std::vector<TruthSample>> truth;  ///< if record_truth
  std::vector<FailureRecord> failures;
  int launched = 0;
  int reentered = 0;
  /// Satellites still tracked (not reentered) at the end.
  int tracked_at_end = 0;
};

/// Runs the scenario one satellite at a time.  Deterministic for a given
/// config: every satellite draws from its own random streams, so its whole
/// life is one independent task (DESIGN.md §20).
class ConstellationSimulator {
 public:
  explicit ConstellationSimulator(ConstellationConfig config);

  /// Run from start to end and return the observed catalog + bookkeeping.
  /// Satellites are stepped over `num_threads` workers (the exec
  /// convention: 0 = all hardware threads, 1 = serial); the result is the
  /// same at every thread count and on every call.
  [[nodiscard]] SimulationResult run(int num_threads = 1) const;

 private:
  ConstellationConfig config_;
};

}  // namespace cosmicdance::simulation
