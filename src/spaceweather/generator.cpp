#include "spaceweather/generator.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"
#include "spaceweather/burton.hpp"

namespace cosmicdance::spaceweather {
namespace {

constexpr double kHoursPerYear = 24.0 * 365.25;

}  // namespace

DstGenerator::DstGenerator(DstGeneratorConfig config) : config_(std::move(config)) {
  if (config_.hours <= 0) throw ValidationError("generator hours must be positive");
  if (config_.quiet_ar1 <= -1.0 || config_.quiet_ar1 >= 1.0) {
    throw ValidationError("AR(1) coefficient must be in (-1,1)");
  }
  config_.start.validate();
}

void DstGenerator::add_storm(std::vector<double>& storm_component,
                             const ScriptedStorm& storm,
                             timeutil::HourIndex series_start) const {
  // Script peaks are observed Dst; the storm component rides on the quiet
  // mean, so drive the ODE toward (peak - quiet_mean).
  const double target = storm.peak_dst_nt - kQuietMeanNt;
  if (target >= 0.0) {
    throw ValidationError("scripted storm peak must be below the quiet mean");
  }
  const double tau = storm.recovery_tau_hours;
  // Window: main phase + plateau + enough recovery to decay to < 1 nT.
  const auto recovery_hours =
      static_cast<std::size_t>(std::ceil(tau * std::log(std::fabs(target)))) + 1;
  const auto main_hours = static_cast<std::size_t>(std::ceil(storm.main_phase_hours));
  const auto plateau_hours = static_cast<std::size_t>(std::ceil(storm.plateau_hours));
  const std::size_t total = main_hours + plateau_hours + recovery_hours;

  std::vector<double> injection =
      storm_injection_profile(target, storm.main_phase_hours, tau, total);
  // Holding the state constant at x requires Q = x / tau.
  for (std::size_t i = main_hours; i < main_hours + plateau_hours; ++i) {
    injection[i] = target / tau;
  }
  const std::vector<double> response = integrate_burton(injection, tau);

  const timeutil::HourIndex onset = timeutil::hour_index_from_datetime(storm.onset);
  for (std::size_t i = 0; i < response.size(); ++i) {
    const timeutil::HourIndex hour = onset + static_cast<timeutil::HourIndex>(i);
    const auto offset = hour - series_start;
    if (offset < 0 || offset >= static_cast<timeutil::HourIndex>(storm_component.size())) {
      continue;
    }
    storm_component[static_cast<std::size_t>(offset)] += response[i];
  }
}

DstIndex DstGenerator::generate() const {
  const auto n = static_cast<std::size_t>(config_.hours);
  const timeutil::HourIndex start = timeutil::hour_index_from_datetime(config_.start);

  Rng rng(config_.seed);

  // ---- quiet-time AR(1) background --------------------------------------
  std::vector<double> quiet(n);
  const double innovation_sigma =
      kQuietSigmaNt * std::sqrt(1.0 - config_.quiet_ar1 * config_.quiet_ar1);
  double state = kQuietMeanNt;
  for (std::size_t i = 0; i < n; ++i) {
    state = kQuietMeanNt + config_.quiet_ar1 * (state - kQuietMeanNt) +
            rng.normal(0.0, innovation_sigma);
    quiet[i] = state;
  }

  // ---- storm component ----------------------------------------------------
  std::vector<double> storm_component(n, 0.0);
  for (const ScriptedStorm& storm : config_.scripted_storms) {
    add_storm(storm_component, storm, start);
  }

  if (config_.include_random_storms) {
    Rng storm_rng = rng.split();
    const double years = static_cast<double>(config_.hours) / kHoursPerYear;

    // Solar-cycle thinning: draw onset hours uniformly, then keep each storm
    // with probability proportional to the cycle modulation at its time
    // (thinning a Poisson process modulates its rate exactly).
    const timeutil::HourIndex cycle_peak_hour =
        timeutil::hour_index_from_datetime(kSolarCyclePeak);
    auto cycle_keep = [&](timeutil::HourIndex hour, Rng& r) {
      if (!config_.solar_cycle_modulation) return true;
      const double phase_years = static_cast<double>(hour - cycle_peak_hour) /
                                 kHoursPerYear;
      // cos so the reference time is a maximum.
      const double factor =
          1.0 + kSolarCycleAmplitude *
                    std::cos(units::kTwoPi * phase_years / kSolarCyclePeriodYears);
      const double peak_factor = 1.0 + kSolarCycleAmplitude;
      return r.bernoulli(std::max(factor, 0.0) / peak_factor);
    };

    // Peak magnitudes are exponential beyond the band threshold (most
    // storms barely cross it) and recovery taus log-normal — together these
    // reproduce the short-median / long-tail duration shapes of Fig 2.
    const double oversample =
        config_.solar_cycle_modulation ? 1.0 + kSolarCycleAmplitude : 1.0;
    const auto minor_count =
        storm_rng.poisson(config_.minor_storms_per_year * years * oversample);
    for (std::uint64_t k = 0; k < minor_count; ++k) {
      ScriptedStorm storm;
      const timeutil::HourIndex onset_hour =
          start + storm_rng.uniform_int(0, config_.hours - 1);
      const bool keep = cycle_keep(onset_hour, storm_rng);
      storm.onset = timeutil::datetime_from_hour_index(onset_hour);
      storm.peak_dst_nt = std::max(-52.0 - storm_rng.exponential(13.0), -98.0);
      storm.main_phase_hours = 1.0 + storm_rng.exponential(1.5);
      storm.plateau_hours = storm_rng.exponential(0.8);
      storm.recovery_tau_hours =
          std::clamp(storm_rng.lognormal(std::log(8.0), 0.65), 4.0, 32.0);
      if (keep) add_storm(storm_component, storm, start);
    }

    const auto moderate_count = storm_rng.poisson(
        config_.moderate_storms_per_year * years * oversample);
    for (std::uint64_t k = 0; k < moderate_count; ++k) {
      ScriptedStorm storm;
      const timeutil::HourIndex onset_hour =
          start + storm_rng.uniform_int(0, config_.hours - 1);
      const bool keep = cycle_keep(onset_hour, storm_rng);
      storm.onset = timeutil::datetime_from_hour_index(onset_hour);
      storm.peak_dst_nt = std::max(-102.0 - storm_rng.exponential(28.0), -195.0);
      storm.main_phase_hours = 1.5 + storm_rng.exponential(2.0);
      storm.plateau_hours = storm_rng.exponential(0.7);
      storm.recovery_tau_hours =
          std::clamp(storm_rng.lognormal(std::log(9.0), 0.7), 4.0, 30.0);
      if (keep) add_storm(storm_component, storm, start);
    }
  }

  // ---- combine ------------------------------------------------------------
  std::vector<double> dst(n);
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = std::max(quiet[i] + storm_component[i], -1900.0);
  }
  return DstIndex(start, std::move(dst));
}

DstGeneratorConfig DstGenerator::paper_window_2020_2024() {
  DstGeneratorConfig config;
  config.seed = 20200101;
  config.start = timeutil::make_datetime(2020, 1, 1);
  // Jan 1 2020 .. May 7 2024 ("1st week of May"), in hours.
  config.hours = static_cast<long>(timeutil::hours_between(
      config.start, timeutil::make_datetime(2024, 5, 7)));

  // The real events the paper anchors on (dates as reported; intensities
  // from the WDC record / the paper's text).
  // 2022-01-29: the moderate storm behind the Feb 2022 Starlink loss.
  config.scripted_storms.push_back(
      {timeutil::make_datetime(2022, 1, 29, 10), -91.0, 3.0, 1.0, 9.0});
  // 2023-03-24: moderate storm, Fig 3's first decay-onset anchor.
  config.scripted_storms.push_back(
      {timeutil::make_datetime(2023, 3, 24, 2), -163.0, 5.0, 1.0, 10.0});
  // 2023-04-24: the dataset's only severe storm (3 severe hours).
  config.scripted_storms.push_back(
      {timeutil::make_datetime(2023, 4, 23, 19), -208.0, 4.0, 2.0, 6.0});
  // 2023-09-18: the -112 nT event picked for Fig 4(a).
  config.scripted_storms.push_back(
      {timeutil::make_datetime(2023, 9, 18, 12), -112.0, 4.0, 1.0, 10.0});
  // 2024-03-03: moderate storm, Fig 3's second decay-onset anchor.
  config.scripted_storms.push_back(
      {timeutil::make_datetime(2024, 3, 3, 6), -127.0, 4.0, 1.0, 11.0});
  return config;
}

DstGeneratorConfig DstGenerator::with_may_2024_superstorm() {
  DstGeneratorConfig config = paper_window_2020_2024();
  config.hours = static_cast<long>(timeutil::hours_between(
      config.start, timeutil::make_datetime(2024, 6, 1)));
  // The May 10-11 2024 super-storm: double-dip CME arrival, peak ~ -412 nT,
  // ~23 hours below -200 nT.
  config.scripted_storms.push_back(
      {timeutil::make_datetime(2024, 5, 10, 17), -412.0, 4.0, 4.0, 7.0});
  config.scripted_storms.push_back(
      {timeutil::make_datetime(2024, 5, 11, 8), -260.0, 3.0, 3.0, 9.0});
  return config;
}

DstGeneratorConfig DstGenerator::carrington_what_if() {
  DstGeneratorConfig config = paper_window_2020_2024();
  config.hours = static_cast<long>(timeutil::hours_between(
      config.start, timeutil::make_datetime(2024, 6, 1)));
  // A Carrington-scale double-dip landing on the May-2024 dates: recorded
  // 1859 estimates put the peak near -1800 nT with a day-scale main phase.
  config.scripted_storms.push_back(
      {timeutil::make_datetime(2024, 5, 10, 17), -1800.0, 6.0, 8.0, 12.0});
  config.scripted_storms.push_back(
      {timeutil::make_datetime(2024, 5, 11, 12), -900.0, 4.0, 6.0, 14.0});
  return config;
}

DstGeneratorConfig DstGenerator::historical_50_years() {
  DstGeneratorConfig config;
  config.seed = 19750101;
  config.start = timeutil::make_datetime(1975, 1, 1);
  config.hours = static_cast<long>(timeutil::hours_between(
      config.start, timeutil::make_datetime(2024, 6, 1)));
  // Thin the random background slightly: the long record is dominated by
  // its named super-storms in Fig 8.
  config.minor_storms_per_year = 22.0;
  config.moderate_storms_per_year = 4.0;
  // Storm density follows the ~11-year solar cycle over a 50-year record.
  config.solar_cycle_modulation = true;

  // The eight named storms of Fig 8 (date, peak Dst).
  config.scripted_storms.push_back(
      {timeutil::make_datetime(1989, 3, 13, 12), -589.0, 6.0, 4.0, 12.0});
  config.scripted_storms.push_back(
      {timeutil::make_datetime(1991, 11, 9, 0), -354.0, 5.0, 2.0, 11.0});
  config.scripted_storms.push_back(
      {timeutil::make_datetime(2000, 4, 6, 18), -288.0, 4.0, 2.0, 10.0});
  config.scripted_storms.push_back(
      {timeutil::make_datetime(2000, 7, 15, 14), -301.0, 4.0, 2.0, 10.0});
  config.scripted_storms.push_back(
      {timeutil::make_datetime(2001, 4, 11, 16), -271.0, 4.0, 2.0, 10.0});
  config.scripted_storms.push_back(
      {timeutil::make_datetime(2001, 11, 5, 20), -292.0, 4.0, 2.0, 10.0});
  config.scripted_storms.push_back(
      {timeutil::make_datetime(2003, 10, 30, 0), -383.0, 5.0, 3.0, 11.0});
  config.scripted_storms.push_back(
      {timeutil::make_datetime(2024, 5, 10, 17), -412.0, 4.0, 6.0, 9.0});
  return config;
}

}  // namespace cosmicdance::spaceweather
