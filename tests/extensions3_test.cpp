// Tests for the third extension wave: solar-cycle modulation, the OMM/KVN
// codec, and the merged-timeline (align) API.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "core/merge.hpp"
#include "orbit/elements.hpp"
#include "spaceweather/generator.hpp"
#include "spaceweather/storms.hpp"
#include "tle/omm.hpp"

namespace cosmicdance {
namespace {

using timeutil::make_datetime;

// ------------------------- solar-cycle modulation ---------------------------

TEST(SolarCycleTest, StormDensityFollowsCycle) {
  spaceweather::DstGeneratorConfig config;
  config.seed = 2024;
  config.start = make_datetime(1996, 1, 1);
  config.hours = 24 * 365 * 11;  // one full cycle, peak ~Apr 2000
  config.minor_storms_per_year = 40.0;
  config.moderate_storms_per_year = 5.0;
  config.solar_cycle_modulation = true;
  const auto dst = spaceweather::DstGenerator(config).generate();

  auto storm_hours_in = [&](int year_lo, int year_hi) {
    const auto from = timeutil::hour_index_from_datetime(
        make_datetime(year_lo, 1, 1));
    const auto to = timeutil::hour_index_from_datetime(
        make_datetime(year_hi, 1, 1));
    long hours = 0;
    for (const double v : dst.slice(from, to).values()) {
      if (v <= spaceweather::kMinorThresholdNt) ++hours;
    }
    return hours;
  };
  // Around the maximum (1999-2001) storms are much denser than around the
  // minimum (1996 start / 2006 end of cycle: use 2005-2006).
  const long near_max = storm_hours_in(1999, 2001);
  const long near_min = storm_hours_in(2005, 2006) * 2;  // same span length
  EXPECT_GT(near_max, 2 * near_min);
}

TEST(SolarCycleTest, OffByDefaultPreservesPaperCalibration) {
  // The paper-window preset must keep its calibrated totals (regression
  // guard: the modulation changes must not disturb the default stream).
  const auto dst = spaceweather::DstGenerator(
                       spaceweather::DstGenerator::paper_window_2020_2024())
                       .generate();
  const auto hours = spaceweather::StormDetector::category_hours(dst);
  EXPECT_EQ(hours.at(spaceweather::StormCategory::kSevere), 3);
  EXPECT_NEAR(static_cast<double>(hours.at(spaceweather::StormCategory::kMinor)),
              748.0, 1.0);  // exact value from the calibrated seed
}

// --------------------------------- OMM --------------------------------------

tle::Tle sample_tle() {
  tle::Tle t;
  t.catalog_number = 45766;
  t.classification = 'U';
  t.international_designator = "20035K";
  t.epoch_jd = timeutil::to_julian(make_datetime(2023, 3, 24, 6, 30));
  t.inclination_deg = 53.0537;
  t.raan_deg = 212.1234;
  t.eccentricity = 0.0001234;
  t.arg_perigee_deg = 87.9;
  t.mean_anomaly_deg = 272.15;
  t.mean_motion_revday = 15.06391234;
  t.bstar = 3.1415e-4;
  t.mean_motion_dot = 1.2e-5;
  t.mean_motion_ddot = 0.0;
  t.element_set_number = 123;
  t.rev_number = 12345;
  return t;
}

TEST(OmmTest, RenderContainsMandatoryKeys) {
  const std::string kvn = tle::to_omm_kvn(sample_tle(), "STARLINK-1361");
  for (const char* key :
       {"CCSDS_OMM_VERS", "OBJECT_NAME = STARLINK-1361", "OBJECT_ID = 20035K",
        "MEAN_ELEMENT_THEORY = SGP4", "REF_FRAME = TEME", "NORAD_CAT_ID = 45766",
        "MEAN_MOTION = 15.06391234", "BSTAR"}) {
    EXPECT_NE(kvn.find(key), std::string::npos) << key;
  }
}

TEST(OmmTest, RoundTripLossless) {
  const tle::Tle original = sample_tle();
  const tle::Tle back = tle::from_omm_kvn(tle::to_omm_kvn(original));
  EXPECT_EQ(back.catalog_number, original.catalog_number);
  EXPECT_EQ(back.international_designator, original.international_designator);
  EXPECT_NEAR(back.epoch_jd, original.epoch_jd, 1e-8);
  EXPECT_NEAR(back.mean_motion_revday, original.mean_motion_revday, 1e-10);
  EXPECT_NEAR(back.eccentricity, original.eccentricity, 1e-12);
  EXPECT_NEAR(back.inclination_deg, original.inclination_deg, 1e-9);
  EXPECT_NEAR(back.raan_deg, original.raan_deg, 1e-9);
  EXPECT_NEAR(back.bstar, original.bstar, 1e-12);
  EXPECT_EQ(back.rev_number, original.rev_number);
  EXPECT_EQ(back.element_set_number, original.element_set_number);
}

TEST(OmmTest, ParseIgnoresUnknownKeysAndComments) {
  std::string kvn = tle::to_omm_kvn(sample_tle());
  kvn = "COMMENT generated for test\nUSER_DEFINED_FOO = bar\n" + kvn;
  EXPECT_NO_THROW((void)tle::from_omm_kvn(kvn));
}

TEST(OmmTest, MissingMandatoryKeyThrows) {
  std::string kvn = tle::to_omm_kvn(sample_tle());
  const auto pos = kvn.find("MEAN_MOTION =");
  kvn.erase(pos, kvn.find('\n', pos) - pos + 1);
  EXPECT_THROW((void)tle::from_omm_kvn(kvn), ParseError);
  EXPECT_THROW((void)tle::from_omm_kvn("EPOCH = 2023-01-01T00:00:00\n"),
               ParseError);
}

TEST(OmmTest, IntegerKeysOutsideIntThrowBeforeTheCast) {
  // Converting a double outside int's range to int is undefined, so the
  // integer keys are range-checked first; NaN fails the same check.
  for (const char* key :
       {"NORAD_CAT_ID", "EPHEMERIS_TYPE", "ELEMENT_SET_NO", "REV_AT_EPOCH"}) {
    for (const char* value : {"3e9", "-2147483649", "1e300", "nan"}) {
      std::string kvn = tle::to_omm_kvn(sample_tle());
      const std::string prefix = std::string(key) + " = ";
      const auto pos = kvn.find(prefix);
      ASSERT_NE(pos, std::string::npos) << key;
      kvn.replace(pos, kvn.find('\n', pos) - pos, prefix + value);
      EXPECT_THROW((void)tle::from_omm_kvn(kvn), ValidationError)
          << key << " = " << value;
    }
  }
}

TEST(OmmTest, CatalogRoundTrip) {
  tle::TleCatalog catalog;
  tle::Tle a = sample_tle();
  catalog.add(a);
  a.epoch_jd += 0.5;
  catalog.add(a);
  a.catalog_number = 45400;
  catalog.add(a);

  tle::TleCatalog reloaded;
  EXPECT_EQ(tle::catalog_add_from_omm_kvn(reloaded,
                                          tle::catalog_to_omm_kvn(catalog)),
            3u);
  EXPECT_EQ(reloaded.record_count(), 3u);
  EXPECT_EQ(reloaded.satellites(), catalog.satellites());
}

TEST(OmmTest, BlocksWithoutBlankSeparatorsStillSplit) {
  // Two messages back-to-back: the CCSDS_OMM_VERS header starts a new block.
  const std::string two = tle::to_omm_kvn(sample_tle()) +
                          tle::to_omm_kvn([] {
                            tle::Tle t = sample_tle();
                            t.catalog_number = 45400;
                            return t;
                          }());
  tle::TleCatalog catalog;
  EXPECT_EQ(tle::catalog_add_from_omm_kvn(catalog, two), 2u);
}

// --------------------------------- merge ------------------------------------

TEST(MergeTest, AlignsSamplesWithDst) {
  // Dst: quiet except hour 48-51 at -150.
  std::vector<double> values(24 * 10, -10.0);
  for (int h = 48; h < 52; ++h) values[static_cast<std::size_t>(h)] = -150.0;
  const spaceweather::DstIndex dst(make_datetime(2023, 6, 1), std::move(values));
  const double jd0 = timeutil::to_julian(make_datetime(2023, 6, 1));

  std::vector<core::TrajectorySample> samples;
  for (double t = 0.0; t < 9.0; t += 0.25) {
    core::TrajectorySample s;
    s.epoch_jd = jd0 + t;
    s.altitude_km = 550.0;
    s.bstar = 2e-4;
    samples.push_back(s);
  }
  const core::SatelliteTrack track(1, std::move(samples));
  const auto aligned = core::align_track(track, dst);
  ASSERT_EQ(aligned.size(), track.size());

  // Sample at day 2.25 (hour 54): storm was within the prior 24 h.
  bool saw_storm_context = false;
  for (const auto& joined : aligned) {
    EXPECT_TRUE(joined.dst_available);
    if (joined.category == spaceweather::StormCategory::kModerate) {
      saw_storm_context = true;
      EXPECT_LE(joined.min_dst_24h_nt, -100.0);
    }
  }
  EXPECT_TRUE(saw_storm_context);
  // First sample: no storm before it.
  EXPECT_EQ(aligned.front().category, spaceweather::StormCategory::kQuiet);
}

TEST(MergeTest, UncoveredEpochsFlagged) {
  const spaceweather::DstIndex dst(make_datetime(2023, 6, 1),
                                   std::vector<double>(24, -10.0));
  std::vector<core::TrajectorySample> samples;
  core::TrajectorySample s;
  s.epoch_jd = timeutil::to_julian(make_datetime(2024, 1, 1));
  samples.push_back(s);
  const auto aligned =
      core::align_track(core::SatelliteTrack(1, std::move(samples)), dst);
  ASSERT_EQ(aligned.size(), 1u);
  EXPECT_FALSE(aligned[0].dst_available);
}

TEST(MergeTest, DragByCategorySeparatesStormSamples) {
  // Build Dst with a storm window and a track whose B* doubles during it.
  std::vector<double> values(24 * 20, -10.0);
  for (int h = 120; h < 132; ++h) values[static_cast<std::size_t>(h)] = -180.0;
  const spaceweather::DstIndex dst(make_datetime(2023, 6, 1), std::move(values));
  const double jd0 = timeutil::to_julian(make_datetime(2023, 6, 1));

  std::vector<core::SatelliteTrack> tracks;
  std::vector<core::TrajectorySample> samples;
  for (double t = 0.0; t < 19.0; t += 0.25) {
    core::TrajectorySample s;
    s.epoch_jd = jd0 + t;
    s.altitude_km = 550.0;
    const bool stormy = t >= 5.0 && t <= 6.0;  // hours 120..144
    s.bstar = stormy ? 4e-4 : 2e-4;
    samples.push_back(s);
  }
  tracks.emplace_back(1, std::move(samples));

  const auto rows = core::drag_by_category(tracks, dst);
  ASSERT_EQ(rows.size(), 5u);
  const auto& quiet = rows[0];
  const auto& moderate = rows[2];
  EXPECT_EQ(quiet.category, spaceweather::StormCategory::kQuiet);
  EXPECT_EQ(moderate.category, spaceweather::StormCategory::kModerate);
  EXPECT_GT(quiet.samples, 0u);
  EXPECT_GT(moderate.samples, 0u);
  EXPECT_GT(moderate.median_bstar, quiet.median_bstar * 1.5);
}

}  // namespace
}  // namespace cosmicdance
