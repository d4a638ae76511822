// Operational monitoring loop (paper §6): CosmicDance as a *live* tool.
//
// Replays 2023 week by week the way a deployment would run: each cycle
// appends the week's new TLEs and hourly Dst to two growing input files and
// feeds the Dst to a storm trigger; when the trigger fires the monitor
// raises an alert (in production: kick off LEOScope network measurements)
// and, on release, runs a quick happens-closely-after damage assessment.
// Every assessment opens the inputs through the snapshot cache, so it
// parses only the TLE bytes appended since the one before, plus the small
// Dst file (DESIGN.md §14).
#include <cstdio>
#include <filesystem>
#include <vector>

#include "core/pipeline.hpp"
#include "core/trigger.hpp"
#include "io/file.hpp"
#include "obs/obs.hpp"
#include "simulation/scenario.hpp"
#include "spaceweather/generator.hpp"
#include "spaceweather/wdc.hpp"
#include "stats/descriptive.hpp"

using namespace cosmicdance;

int main() {
  // The "world": a year of Dst + a small constellation observed by TLEs.
  const auto dst = spaceweather::DstGenerator(
                       spaceweather::DstGenerator::paper_window_2020_2024())
                       .generate();
  auto scenario = simulation::scenario::paper_window(&dst, 3, 30.0);
  const auto run = simulation::ConstellationSimulator(scenario).run();

  const std::filesystem::path work =
      std::filesystem::temp_directory_path() / "cosmicdance_monitor";
  std::filesystem::remove_all(work);
  std::filesystem::create_directories(work);
  const std::string dst_path = (work / "dst.wdc").string();
  const std::string tle_path = (work / "catalog.tle").string();
  core::PipelineConfig config;
  config.cache_dir = (work / "cache").string();

  core::StormTriggerConfig trigger_config;
  trigger_config.onset_nt = -70.0;  // alert on the deeper storms only
  core::StormTrigger trigger(trigger_config);

  const auto start = timeutil::hour_index_from_datetime(
      timeutil::make_datetime(2023, 1, 1));
  const auto end = timeutil::hour_index_from_datetime(
      timeutil::make_datetime(2024, 1, 1));

  std::printf("monitoring 2023 week by week (inputs: %s)\n\n", work.c_str());
  int alerts = 0;
  for (timeutil::HourIndex week = start; week < end; week += 24 * 7) {
    // 1. append the week's TLEs and Dst (whole UT days) to the inputs.
    tle::TleCatalog fresh;
    const double jd_lo = timeutil::julian_from_hour_index(week);
    const double jd_hi = timeutil::julian_from_hour_index(week + 24 * 7);
    for (const int id : run.catalog.satellites()) {
      for (const tle::Tle& record : run.catalog.history(id)) {
        if (record.epoch_jd >= jd_lo && record.epoch_jd < jd_hi) {
          fresh.add(record);
        }
      }
    }
    io::append_file(tle_path, fresh.to_text());
    std::vector<double> hours;
    for (timeutil::HourIndex hour = week;
         hour < week + 24 * 7 && dst.covers(hour); ++hour) {
      hours.push_back(dst.at(hour));
    }
    if (hours.empty()) break;
    io::append_file(dst_path,
                    spaceweather::to_wdc(spaceweather::DstIndex(week, hours)));

    // 2. feed the week's Dst to the trigger.
    for (std::size_t i = 0; i < hours.size(); ++i) {
      const auto event =
          trigger.feed(week + static_cast<timeutil::HourIndex>(i), hours[i]);
      if (!event.has_value()) continue;
      const auto when = timeutil::datetime_from_hour_index(event->hour);
      if (event->kind == core::TriggerEvent::Kind::kOnset) {
        ++alerts;
        std::printf("[ALERT]   %s  storm onset at %.0f nT -> trigger "
                    "measurement campaign\n",
                    when.to_string().substr(0, 16).c_str(), event->dst_nt);
      } else {
        std::printf("[RELEASE] %s  storm over (peak %.0f nT); assessing "
                    "fleet...\n",
                    when.to_string().substr(0, 16).c_str(), event->peak_dst_nt);
        // 3. quick damage assessment over everything ingested so far.
        obs::Metrics metrics;
        config.metrics = &metrics;
        const auto pipeline =
            core::CosmicDance::from_files(dst_path, tle_path, config);
        const auto changes = pipeline.correlator().altitude_change_samples(
            pipeline.tracks(),
            std::vector<double>{timeutil::julian_from_hour_index(event->hour)});
        const auto counters = metrics.snapshot().counters;
        std::printf("          %s over %zu TLEs\n",
                    counters.contains("ingest.delta_hit")   ? "appended tail parsed"
                    : counters.contains("ingest.cache_hit") ? "snapshot reused"
                                                            : "inputs parsed",
                    pipeline.catalog().record_count());
        if (!changes.empty()) {
          std::printf("          %zu satellites analysable; max deviation so "
                      "far %.2f km\n",
                      changes.size(), stats::max(changes));
        }
      }
    }
  }

  config.metrics = nullptr;
  auto pipeline = core::CosmicDance::from_files(dst_path, tle_path, config);
  std::printf("\n%d storm alerts in 2023; the catalog now holds %zu satellites.\n",
              alerts, pipeline.catalog().satellite_count());
  pipeline.wait_for_snapshot_save();  // the cache write lands in `work`
  std::filesystem::remove_all(work);
  return 0;
}
