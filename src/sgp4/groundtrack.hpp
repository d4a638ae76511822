// Ground tracks: sub-satellite points over time from any propagator state.
//
// Used by the latitude-band analyses and coverage studies (paper §6): LEO
// broadband service quality is a function of where satellites are, so the
// finer-granularity storm analyses need position, not just altitude.
#pragma once

#include <vector>

#include "orbit/frames.hpp"
#include "sgp4/sgp4.hpp"

namespace cosmicdance::sgp4 {

/// One sub-satellite point.
struct GroundPoint {
  double jd = 0.0;
  double latitude_deg = 0.0;   ///< geodetic
  double longitude_deg = 0.0;  ///< [-180, 180)
  double altitude_km = 0.0;    ///< geodetic height
};

/// Sample the sub-satellite track from `jd_start` for `duration_minutes`
/// every `step_minutes`.  Throws PropagationError if the propagation fails
/// anywhere in the window.
[[nodiscard]] std::vector<GroundPoint> ground_track(
    const Sgp4Propagator& propagator, double jd_start,
    double duration_minutes, double step_minutes = 1.0);

}  // namespace cosmicdance::sgp4
