// Latitude-band analysis (paper §6: "Finer granularity").
//
// The paper notes that higher latitudes are more storm-exposed and that a
// latitude-band-wise study becomes possible once TLEs are frequent enough.
// This module provides that machinery today: every TLE is geolocated at its
// own epoch (SGP4 state -> GMST rotation -> geodetic latitude) and samples
// are aggregated per |latitude| band.  A track sample's elements are those
// of the catalog record with its epoch.
#pragma once

#include <span>
#include <vector>

#include "core/track.hpp"
#include "tle/catalog.hpp"
#include "tle/tle.hpp"

namespace cosmicdance::core {

/// Aggregates over one |geodetic latitude| band.
struct LatitudeBandStats {
  double lat_lo_deg = 0.0;  ///< inclusive
  double lat_hi_deg = 0.0;  ///< exclusive
  std::size_t samples = 0;
  double dwell_fraction = 0.0;  ///< share of all geolocated samples here
  double median_bstar = 0.0;
  double p95_bstar = 0.0;
};

/// Geodetic |latitude| (degrees) of a TLE at its own epoch.
/// Throws PropagationError if SGP4 rejects the element set.
[[nodiscard]] double sample_latitude_deg(const tle::Tle& tle);

/// Bin every track sample with epoch in [jd_lo, jd_hi) into |latitude|
/// bands of equal width covering [0, 90), geolocating each with its record
/// in `catalog` (the tracks must come from that catalog).  Samples whose
/// elements fail to propagate (gross tracking errors) are skipped.
[[nodiscard]] std::vector<LatitudeBandStats> latitude_band_drag(
    std::span<const SatelliteTrack> tracks, const tle::TleCatalog& catalog,
    double jd_lo, double jd_hi, int bands = 6);

}  // namespace cosmicdance::core
