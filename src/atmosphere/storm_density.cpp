#include "atmosphere/storm_density.hpp"

#include <algorithm>

#include "atmosphere/exponential.hpp"
#include "timeutil/hour_axis.hpp"

namespace cosmicdance::atmosphere {

double storm_enhancement_factor(double altitude_km, double dst_nt) noexcept {
  const double excursion = -dst_nt - kQuietOffsetNt;
  if (excursion <= 0.0) return 1.0;
  const double altitude_scale = std::clamp(altitude_km / kReferenceAltitudeKm,
                                           kMinAltitudeScale, kMaxAltitudeScale);
  return 1.0 + kSensitivityAtReference * altitude_scale * excursion / 100.0;
}

StormDensityModel::StormDensityModel(const spaceweather::DstIndex* dst)
    : dst_(dst) {}

double StormDensityModel::factor(double altitude_km, double jd) const noexcept {
  if (dst_ == nullptr) return 1.0;
  const timeutil::HourIndex hour = timeutil::hour_index_from_julian(jd);
  if (!dst_->covers(hour)) return 1.0;
  return storm_enhancement_factor(altitude_km, dst_->at(hour));
}

double StormDensityModel::density_kg_m3(double altitude_km, double jd) const noexcept {
  return atmosphere::density_kg_m3(altitude_km) * factor(altitude_km, jd);
}

}  // namespace cosmicdance::atmosphere
