#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "timeutil/datetime.hpp"
#include "tle/catalog.hpp"
#include "tle/tle.hpp"

namespace cosmicdance::tle {
namespace {

// The canonical ISS example TLE (checksums valid).
const char* kIssLine1 =
    "1 25544U 98067A   08264.51782528 -.00002182  00000-0 -11606-4 0  2927";
const char* kIssLine2 =
    "2 25544  51.6416 247.4627 0006703 130.5360 325.0288 15.72125391563537";

TEST(ChecksumTest, KnownLines) {
  EXPECT_EQ(checksum(std::string(kIssLine1).substr(0, 68)), 7);
  EXPECT_EQ(checksum(std::string(kIssLine2).substr(0, 68)), 7);
}

TEST(ChecksumTest, MinusCountsAsOne) {
  EXPECT_EQ(checksum("-"), 1);
  EXPECT_EQ(checksum("---"), 3);
  EXPECT_EQ(checksum("12"), 3);
  EXPECT_EQ(checksum("abc XYZ +"), 0);
}

TEST(ParseTest, IssFields) {
  const Tle tle = parse_tle(kIssLine1, kIssLine2);
  EXPECT_EQ(tle.catalog_number, 25544);
  EXPECT_EQ(tle.classification, 'U');
  EXPECT_EQ(tle.international_designator, "98067A");
  EXPECT_NEAR(tle.mean_motion_dot, -0.00002182, 1e-12);
  EXPECT_NEAR(tle.mean_motion_ddot, 0.0, 1e-15);
  EXPECT_NEAR(tle.bstar, -0.11606e-4, 1e-12);
  EXPECT_EQ(tle.ephemeris_type, 0);
  EXPECT_EQ(tle.element_set_number, 292);
  EXPECT_NEAR(tle.inclination_deg, 51.6416, 1e-9);
  EXPECT_NEAR(tle.raan_deg, 247.4627, 1e-9);
  EXPECT_NEAR(tle.eccentricity, 0.0006703, 1e-12);
  EXPECT_NEAR(tle.arg_perigee_deg, 130.5360, 1e-9);
  EXPECT_NEAR(tle.mean_anomaly_deg, 325.0288, 1e-9);
  EXPECT_NEAR(tle.mean_motion_revday, 15.72125391, 1e-8);
  EXPECT_EQ(tle.rev_number, 56353);

  const timeutil::DateTime epoch = tle.epoch_datetime();
  EXPECT_EQ(epoch.year, 2008);
  EXPECT_EQ(epoch.month, 9);
  EXPECT_EQ(epoch.day, 20);
}

TEST(ParseTest, AltitudeFromMeanMotion) {
  const Tle tle = parse_tle(kIssLine1, kIssLine2);
  // ISS at ~15.72 rev/day is roughly 350 km (SMA-derived).
  EXPECT_NEAR(tle.altitude_km(), 350.0, 15.0);
}

TEST(ParseTest, RejectsBadChecksum) {
  std::string corrupted = kIssLine1;
  corrupted[68] = '0';
  EXPECT_THROW(parse_tle(corrupted, kIssLine2), ParseError);
}

TEST(ParseTest, RejectsWrongLength) {
  EXPECT_THROW(parse_tle("1 25544U", kIssLine2), ParseError);
  EXPECT_THROW(parse_tle(std::string(kIssLine1) + " ", kIssLine2), ParseError);
}

TEST(ParseTest, RejectsWrongLineNumber) {
  EXPECT_THROW(parse_tle(kIssLine2, kIssLine1), ParseError);
}

TEST(ParseTest, RejectsCatalogMismatch) {
  // A second valid TLE with a different catalog number.
  Tle other;
  other.catalog_number = 99999;
  other.international_designator = "20001A";
  other.epoch_jd = timeutil::to_julian(timeutil::make_datetime(2023, 1, 1));
  other.inclination_deg = 53.0;
  other.mean_motion_revday = 15.06;
  const TleLines lines = format_tle(other);
  EXPECT_THROW(parse_tle(kIssLine1, lines.line2), ParseError);
}

TEST(FormatTest, ProducesValidLines) {
  Tle tle;
  tle.catalog_number = 45766;
  tle.classification = 'U';
  tle.international_designator = "20035K";
  tle.epoch_jd = timeutil::to_julian(timeutil::make_datetime(2023, 3, 24, 6, 30));
  tle.mean_motion_dot = 1.234e-4;
  tle.mean_motion_ddot = 5.4e-11;
  tle.bstar = 3.1415e-4;
  tle.element_set_number = 123;
  tle.inclination_deg = 53.0537;
  tle.raan_deg = 212.1234;
  tle.eccentricity = 0.0001234;
  tle.arg_perigee_deg = 87.9;
  tle.mean_anomaly_deg = 272.15;
  tle.mean_motion_revday = 15.06391234;
  tle.rev_number = 12345;

  const TleLines lines = format_tle(tle);
  EXPECT_EQ(lines.line1.size(), 69u);
  EXPECT_EQ(lines.line2.size(), 69u);
  // Re-parse and compare every field (format <-> parse are inverse maps).
  const Tle back = parse_tle(lines.line1, lines.line2);
  EXPECT_EQ(back.catalog_number, tle.catalog_number);
  EXPECT_EQ(back.international_designator, tle.international_designator);
  EXPECT_NEAR(back.epoch_jd, tle.epoch_jd, 1e-7);
  EXPECT_NEAR(back.mean_motion_dot, tle.mean_motion_dot, 1e-10);
  EXPECT_NEAR(back.mean_motion_ddot, tle.mean_motion_ddot, 1e-15);
  EXPECT_NEAR(back.bstar, tle.bstar, 1e-9);
  EXPECT_NEAR(back.inclination_deg, tle.inclination_deg, 1e-4);
  EXPECT_NEAR(back.raan_deg, tle.raan_deg, 1e-4);
  EXPECT_NEAR(back.eccentricity, tle.eccentricity, 1e-7);
  EXPECT_NEAR(back.arg_perigee_deg, tle.arg_perigee_deg, 1e-4);
  EXPECT_NEAR(back.mean_anomaly_deg, tle.mean_anomaly_deg, 1e-4);
  EXPECT_NEAR(back.mean_motion_revday, tle.mean_motion_revday, 1e-8);
  EXPECT_EQ(back.rev_number, tle.rev_number);
}

TEST(FormatTest, IssByteRoundTrip) {
  // Formatting a parsed record reproduces the canonical lines byte for byte.
  const Tle tle = parse_tle(kIssLine1, kIssLine2);
  const TleLines lines = format_tle(tle);
  EXPECT_EQ(lines.line1, kIssLine1);
  EXPECT_EQ(lines.line2, kIssLine2);
}

TEST(FormatTest, NegativeBstar) {
  Tle tle = parse_tle(kIssLine1, kIssLine2);
  tle.bstar = -4.56e-5;
  const Tle back = [&] {
    const TleLines lines = format_tle(tle);
    return parse_tle(lines.line1, lines.line2);
  }();
  EXPECT_NEAR(back.bstar, -4.56e-5, 1e-10);
}

TEST(FormatTest, ZeroExponentFields) {
  Tle tle = parse_tle(kIssLine1, kIssLine2);
  tle.bstar = 0.0;
  tle.mean_motion_ddot = 0.0;
  tle.mean_motion_dot = 0.0;
  const TleLines lines = format_tle(tle);
  const Tle back = parse_tle(lines.line1, lines.line2);
  EXPECT_DOUBLE_EQ(back.bstar, 0.0);
  EXPECT_DOUBLE_EQ(back.mean_motion_ddot, 0.0);
  EXPECT_DOUBLE_EQ(back.mean_motion_dot, 0.0);
}

TEST(ValidateTest, RejectsOutOfRange) {
  Tle tle = parse_tle(kIssLine1, kIssLine2);
  tle.catalog_number = 0;
  EXPECT_THROW(tle.validate(), ValidationError);
  tle = parse_tle(kIssLine1, kIssLine2);
  tle.eccentricity = 1.5;
  EXPECT_THROW(tle.validate(), ValidationError);
  tle = parse_tle(kIssLine1, kIssLine2);
  tle.inclination_deg = 181.0;
  EXPECT_THROW(tle.validate(), ValidationError);
  tle = parse_tle(kIssLine1, kIssLine2);
  tle.mean_motion_revday = 0.0;
  EXPECT_THROW(tle.validate(), ValidationError);
}

// Exponent-field round trip across magnitudes.
class ExponentFieldSweep : public ::testing::TestWithParam<double> {};

TEST_P(ExponentFieldSweep, BstarRoundTrips) {
  Tle tle = parse_tle(kIssLine1, kIssLine2);
  tle.bstar = GetParam();
  const TleLines lines = format_tle(tle);
  const Tle back = parse_tle(lines.line1, lines.line2);
  if (tle.bstar == 0.0) {
    EXPECT_DOUBLE_EQ(back.bstar, 0.0);
  } else {
    EXPECT_NEAR(back.bstar / tle.bstar, 1.0, 1e-4);
  }
}

INSTANTIATE_TEST_SUITE_P(Magnitudes, ExponentFieldSweep,
                         ::testing::Values(0.0, 1e-8, -2.5e-6, 9.99e-4, 1.2e-3,
                                           -7.7e-2, 0.5));

Tle make_tle(int catalog, double jd, double mean_motion = 15.06) {
  Tle tle;
  tle.catalog_number = catalog;
  tle.international_designator = "20001A";
  tle.epoch_jd = jd;
  tle.inclination_deg = 53.0;
  tle.mean_motion_revday = mean_motion;
  tle.bstar = 2e-4;
  return tle;
}

TEST(CatalogTest, AddAndHistorySorted) {
  TleCatalog catalog;
  const double jd0 = timeutil::to_julian(timeutil::make_datetime(2023, 1, 1));
  EXPECT_TRUE(catalog.add(make_tle(100, jd0 + 2.0)));
  EXPECT_TRUE(catalog.add(make_tle(100, jd0)));
  EXPECT_TRUE(catalog.add(make_tle(100, jd0 + 1.0)));
  const auto history = catalog.history(100);
  ASSERT_EQ(history.size(), 3u);
  EXPECT_LT(history[0].epoch_jd, history[1].epoch_jd);
  EXPECT_LT(history[1].epoch_jd, history[2].epoch_jd);
}

TEST(CatalogTest, DuplicateEpochsDropped) {
  TleCatalog catalog;
  const double jd0 = timeutil::to_julian(timeutil::make_datetime(2023, 1, 1));
  EXPECT_TRUE(catalog.add(make_tle(100, jd0)));
  EXPECT_FALSE(catalog.add(make_tle(100, jd0)));
  EXPECT_FALSE(catalog.add(make_tle(100, jd0 + 0.5 / 86400.0)));  // within 1 s
  EXPECT_TRUE(catalog.add(make_tle(100, jd0 + 10.0 / 86400.0)));
  EXPECT_EQ(catalog.record_count(), 2u);
}

TEST(CatalogTest, SeparateSatellites) {
  TleCatalog catalog;
  const double jd0 = timeutil::to_julian(timeutil::make_datetime(2023, 1, 1));
  catalog.add(make_tle(100, jd0));
  catalog.add(make_tle(200, jd0));
  catalog.add(make_tle(100, jd0 + 1.0));
  EXPECT_EQ(catalog.satellite_count(), 2u);
  EXPECT_EQ(catalog.record_count(), 3u);
  EXPECT_EQ(catalog.satellites(), (std::vector<int>{100, 200}));
  EXPECT_EQ(catalog.history(100).size(), 2u);
  EXPECT_TRUE(catalog.history(300).empty());
}

TEST(CatalogTest, AdoptHistoriesJoinsWholeSatellitesAndRejectsOverlap) {
  // How the simulator hands over its satellites' histories: joined to a
  // catalog that holds others, the result equals one catalog built from
  // all the records by add(); a satellite already present, or in two
  // histories, throws and leaves the catalog as it was.
  const double jd0 = timeutil::to_julian(timeutil::make_datetime(2023, 1, 1));
  TleCatalog whole;
  TleCatalog first;
  std::vector<std::vector<Tle>> histories(2);
  for (const int sat : {100, 300}) {
    for (int day = 0; day < 3; ++day) {
      whole.add(make_tle(sat, jd0 + day));
      histories[sat == 100 ? 0 : 1].push_back(make_tle(sat, jd0 + day));
    }
  }
  whole.add(make_tle(200, jd0));
  first.add(make_tle(200, jd0));
  first.adopt_histories(histories, 2);
  EXPECT_EQ(first.record_count(), whole.record_count());
  EXPECT_EQ(first.satellites(), whole.satellites());
  EXPECT_EQ(first.to_text(), whole.to_text());

  const std::string before = first.to_text();
  EXPECT_THROW(first.adopt_histories({{make_tle(300, jd0 + 7.0)}}),
               ValidationError);
  EXPECT_THROW(first.adopt_histories({{make_tle(400, jd0)}, {make_tle(400, jd0 + 1.0)}}),
               ValidationError);
  EXPECT_EQ(first.to_text(), before);
  EXPECT_EQ(first.record_count(), whole.record_count());
}

TEST(CatalogTest, EpochBounds) {
  TleCatalog catalog;
  EXPECT_THROW(static_cast<void>(catalog.last_epoch_jd()), ValidationError);
  const double jd0 = timeutil::to_julian(timeutil::make_datetime(2023, 1, 1));
  catalog.add(make_tle(100, jd0 + 5.0));
  catalog.add(make_tle(200, jd0));
  EXPECT_NEAR(catalog.last_epoch_jd(), jd0 + 5.0, 1e-9);
}

TEST(CatalogTest, TwoLineTextRoundTrip) {
  TleCatalog catalog;
  const double jd0 = timeutil::to_julian(timeutil::make_datetime(2023, 1, 1));
  catalog.add(make_tle(100, jd0));
  catalog.add(make_tle(200, jd0 + 1.0, 15.4));
  const std::string text = catalog.to_text();

  TleCatalog loaded;
  EXPECT_EQ(loaded.add_from_text(text), 2u);
  EXPECT_EQ(loaded.satellite_count(), 2u);
  EXPECT_NEAR(loaded.history(200).front().mean_motion_revday, 15.4, 1e-8);
}

TEST(CatalogTest, ThreeLineFormatWithNames) {
  const std::string text = std::string("STARLINK-TEST\n") + kIssLine1 + "\n" +
                           kIssLine2 + "\n";
  TleCatalog catalog;
  EXPECT_EQ(catalog.add_from_text(text), 1u);
  EXPECT_EQ(catalog.satellites(), (std::vector<int>{25544}));
}

TEST(CatalogTest, DanglingLine1Throws) {
  TleCatalog catalog;
  EXPECT_THROW(catalog.add_from_text(std::string(kIssLine1) + "\n"), ParseError);
}

TEST(CatalogTest, Line2WithoutLine1Throws) {
  TleCatalog catalog;
  EXPECT_THROW(catalog.add_from_text(std::string(kIssLine2) + "\n"), ParseError);
}

TEST(CatalogTest, RefreshIntervals) {
  TleCatalog catalog;
  const double jd0 = timeutil::to_julian(timeutil::make_datetime(2023, 1, 1));
  catalog.add(make_tle(100, jd0));
  catalog.add(make_tle(100, jd0 + 0.5));   // 12 h
  catalog.add(make_tle(100, jd0 + 1.25));  // 18 h
  catalog.add(make_tle(200, jd0));         // no interval (single record... yet)
  const auto intervals = catalog.refresh_intervals_hours();
  ASSERT_EQ(intervals.size(), 2u);
  EXPECT_NEAR(intervals[0], 12.0, 1e-9);
  EXPECT_NEAR(intervals[1], 18.0, 1e-9);
}

}  // namespace
}  // namespace cosmicdance::tle
