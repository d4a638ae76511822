// One benign Starlink-like element set, the record the snapshot, serving
// and ingestion tests build their corpora from.
#pragma once

#include "timeutil/datetime.hpp"
#include "tle/tle.hpp"

namespace cosmicdance::test_support {

/// A valid TLE for `catalog_number` whose epoch is `epoch_offset_days`
/// after `base` (2024-05-01 00:00 UTC unless given).
inline tle::Tle make_tle(
    int catalog_number, double epoch_offset_days,
    const timeutil::DateTime& base = timeutil::make_datetime(2024, 5, 1)) {
  tle::Tle record;
  record.catalog_number = catalog_number;
  record.international_designator = "20001A";
  record.epoch_jd = timeutil::to_julian(base) + epoch_offset_days;
  record.bstar = 1.4e-4;
  record.inclination_deg = 53.05;
  record.raan_deg = 120.5;
  record.eccentricity = 0.0002;
  record.arg_perigee_deg = 90.0;
  record.mean_anomaly_deg = 45.0;
  record.mean_motion_revday = 15.05;
  record.element_set_number = 999;
  record.rev_number = 12345;
  return record;
}

}  // namespace cosmicdance::test_support
