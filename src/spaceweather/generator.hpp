// Synthetic Dst synthesiser.
//
// Offline stand-in for the WDC Kyoto archive (see DESIGN.md substitution
// table).  Quiet-time behaviour is an AR(1) process around the climatological
// mean; storms are injected through the Burton ring-current ODE so main
// phase / recovery shapes are physical.  Named real events (the paper's
// anchor storms) are scripted at their historical dates and intensities;
// background storms arrive via a Poisson process.  Everything is
// deterministic given the seed.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "spaceweather/dst_index.hpp"

namespace cosmicdance::spaceweather {

/// A storm scripted at an exact onset time and observed peak Dst.
struct ScriptedStorm {
  timeutil::DateTime onset;       ///< start of the main phase
  double peak_dst_nt = -100.0;    ///< observed Dst at peak (negative)
  double main_phase_hours = 4.0;  ///< onset -> peak
  double plateau_hours = 0.0;     ///< hours held at peak before recovery
  double recovery_tau_hours = 10.0;
};

// Quiet-time AR(1) around the climatological mean.
inline constexpr double kQuietMeanNt = -11.0;
inline constexpr double kQuietSigmaNt = 7.0;  ///< stationary standard deviation

/// Solar-cycle modulation of the background rates (when a config turns it
/// on):
///   rate(t) = rate * (1 + kSolarCycleAmplitude *
///                         cos(2*pi*(t - kSolarCyclePeak)/kSolarCyclePeriodYears))
/// clamped at >= 0.
inline constexpr double kSolarCyclePeriodYears = 11.0;
inline constexpr double kSolarCycleAmplitude = 0.85;
/// A solar-maximum reference time (cycle 23 peak ~ April 2000).
inline constexpr timeutil::DateTime kSolarCyclePeak{2000, 4, 1, 0, 0, 0.0};

struct DstGeneratorConfig {
  std::uint64_t seed = 20240504;
  timeutil::DateTime start{2020, 1, 1, 0, 0, 0.0};
  long hours = 24 * 365;

  double quiet_ar1 = 0.97;  ///< hourly autocorrelation of the quiet AR(1)

  // Poisson background storms (per year).
  bool include_random_storms = true;
  double minor_storms_per_year = 30.0;
  double moderate_storms_per_year = 3.8;

  /// Solar-cycle modulation of the background rates.  Off by default (the
  /// 2020-2024 window sits on one rising flank); the 50-year preset turns
  /// it on so storm density follows the ~11-year cycle (Fig 8's visual
  /// texture).
  bool solar_cycle_modulation = false;

  std::vector<ScriptedStorm> scripted_storms;
};

/// Generates hourly Dst series from a configuration.
class DstGenerator {
 public:
  explicit DstGenerator(DstGeneratorConfig config);

  /// Produce the full series (one value per hour from config.start).
  [[nodiscard]] DstIndex generate() const;

  /// The paper's measurement window: 2020-01-01 .. 2024-05-07, calibrated
  /// so the headline statistics match §4 (99th-ptile intensity ~ -63 nT;
  /// ~720 mild / ~74 moderate / exactly 3 severe hours; scripted events on
  /// 2022-01-29, 2023-03-24, 2023-04-24, 2023-09-18 (-112 nT, the Fig 4
  /// anchor) and 2024-03-03).
  [[nodiscard]] static DstGeneratorConfig paper_window_2020_2024();

  /// paper_window extended through June 2024 with the May 10-11 2024
  /// super-storm (peak ~ -412 nT, ~23 hours below -200 nT) — Fig 7.
  [[nodiscard]] static DstGeneratorConfig with_may_2024_superstorm();

  /// ~50-year record (1975..mid-2024) with the eight named historical
  /// storms of Fig 8 and a solar-cycle-modulated storm background.
  [[nodiscard]] static DstGeneratorConfig historical_50_years();

  /// What-if: the May-2024 window with the super-storm replaced by a
  /// Carrington-scale event (~ -1800 nT, the paper's recurring reference
  /// point for "are today's constellations ready?").
  [[nodiscard]] static DstGeneratorConfig carrington_what_if();

 private:
  void add_storm(std::vector<double>& storm_component, const ScriptedStorm& storm,
                 timeutil::HourIndex series_start) const;

  DstGeneratorConfig config_;
};

}  // namespace cosmicdance::spaceweather
