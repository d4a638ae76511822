#include "simulation/launch_plan.hpp"

#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace cosmicdance::simulation {

std::vector<LaunchBatch> starlink_like_plan(const timeutil::DateTime& first,
                                            const timeutil::DateTime& until,
                                            double cadence_days, int count_per_batch,
                                            const SatelliteConfig& satellite) {
  if (!(cadence_days > 0.0)) throw ValidationError("launch cadence must be positive");
  if (count_per_batch <= 0) throw ValidationError("batch size must be positive");
  const double total_hours = timeutil::hours_between(first, until);
  if (total_hours <= 0.0) {
    throw ValidationError("launch plan end must come after its start");
  }
  const double steps = std::floor(total_hours / (cadence_days * 24.0));
  if (!(steps < static_cast<double>(std::numeric_limits<std::size_t>::max()))) {
    throw ValidationError("launch plan has no finite batch count");
  }
  std::vector<LaunchBatch> plan;
  const auto batches = static_cast<std::size_t>(steps) + 1;
  plan.reserve(batches);
  for (std::size_t i = 0; i < batches; ++i) {
    LaunchBatch batch;
    batch.time = timeutil::add_hours(first, static_cast<double>(i) * cadence_days * 24.0);
    batch.count = count_per_batch;
    batch.satellite = satellite;
    // Walk the planes around the equator with a large co-prime-ish stride so
    // consecutive launches do not crowd one RAAN sector.
    batch.raan_deg = std::fmod(static_cast<double>(i) * 137.5, 360.0);
    plan.push_back(batch);
  }
  return plan;
}

}  // namespace cosmicdance::simulation
