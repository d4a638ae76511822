// TleCatalog ingestion edge cases the first tle_test leaves uncovered:
// truncated lines, corrupted checksums mid-catalog, duplicate NORAD IDs
// (same satellite re-listed, and exact-epoch duplicates), CRLF line endings,
// non-finite fields, a property-style format -> parse -> format round trip
// over randomly generated element sets, and the record formatter held to
// the printf formatter it replaced.
#include <gtest/gtest.h>
#include <unistd.h>

#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "diag/diag.hpp"
#include "io/file.hpp"
#include "support/resident.hpp"
#include "support/temp_dir.hpp"
#include "timeutil/datetime.hpp"
#include "tle/catalog.hpp"
#include "tle/tle.hpp"

namespace cosmicdance::tle {
namespace {

// The canonical ISS TLE (checksums valid), reused as a splice donor.
const char* kIssLine1 =
    "1 25544U 98067A   08264.51782528 -.00002182  00000-0 -11606-4 0  2927";
const char* kIssLine2 =
    "2 25544  51.6416 247.4627 0006703 130.5360 325.0288 15.72125391563537";

/// A valid record with controllable catalog number and epoch offset.
Tle make_tle(int catalog_number, double epoch_offset_days = 0.0) {
  Tle tle;
  tle.catalog_number = catalog_number;
  tle.international_designator = "20001A";
  tle.epoch_jd =
      timeutil::to_julian(timeutil::make_datetime(2022, 3, 1)) +
      epoch_offset_days;
  tle.bstar = 1.4e-4;
  tle.inclination_deg = 53.05;
  tle.raan_deg = 120.5;
  tle.eccentricity = 0.0002;
  tle.arg_perigee_deg = 90.0;
  tle.mean_anomaly_deg = 45.0;
  tle.mean_motion_revday = 15.05;
  tle.element_set_number = 999;
  tle.rev_number = 12345;
  return tle;
}

std::string as_text(const Tle& tle) {
  const TleLines lines = format_tle(tle);
  return lines.line1 + "\n" + lines.line2 + "\n";
}

/// Re-stamp a line's checksum after a deliberate field mutation so the
/// corruption reaches the field parser instead of tripping the checksum.
std::string restamp(std::string line) {
  line[68] = static_cast<char>('0' + checksum(line.substr(0, 68)));
  return line;
}

// ---- field-level numeric validation ---------------------------------------

TEST(TleFieldValidation, NonDigitEccentricityRejectedEvenWithValidChecksum) {
  // Eccentricity is an assumed-decimal digit field (line 2, cols 27-33); a
  // stray letter must be a parse error, never strtod'ing to a prefix value.
  std::string line2 = kIssLine2;
  line2.replace(26, 7, "00a6703");
  line2 = restamp(line2);
  try {
    const Tle parsed = parse_tle(kIssLine1, line2);
    FAIL() << "letter inside eccentricity parsed as " << parsed.eccentricity;
  } catch (const ParseError& error) {
    EXPECT_EQ(error.category(), ErrorCategory::kNumeric);
  }
}

TEST(TleFieldValidation, SpacePaddedEccentricityRejected) {
  std::string line2 = kIssLine2;
  line2.replace(26, 7, " 006703");
  line2 = restamp(line2);
  EXPECT_THROW(parse_tle(kIssLine1, line2), ParseError);
}

TEST(TleFieldValidation, NonDigitBstarMantissaRejectedEvenWithValidChecksum) {
  // B* is an exponent field (line 1, cols 54-61): " 12a45-3" must not
  // strtod to 12e-3 with the tail ignored.
  std::string line1 = kIssLine1;
  line1.replace(53, 8, " 12a45-3");
  line1 = restamp(line1);
  try {
    const Tle parsed = parse_tle(line1, kIssLine2);
    FAIL() << "letter inside B* mantissa parsed as " << parsed.bstar;
  } catch (const ParseError& error) {
    EXPECT_EQ(error.category(), ErrorCategory::kNumeric);
  }
}

TEST(TleFieldValidation, ChecksumErrorsCarryTheChecksumCategory) {
  std::string line1 = kIssLine1;
  line1[68] = line1[68] == '0' ? '1' : '0';
  try {
    const Tle parsed = parse_tle(line1, kIssLine2);
    FAIL() << "corrupted checksum accepted for " << parsed.catalog_number;
  } catch (const ParseError& error) {
    EXPECT_EQ(error.category(), ErrorCategory::kChecksum);
  }
}

TEST(TleFieldValidation, NonFiniteFieldsRejected) {
  // NaN passes every range comparison, so each floating field is checked
  // for finiteness on its own: a NaN epoch would sort anywhere in a
  // history, and an infinite B* would never leave the formatter's
  // normalising loop.
  const std::pair<const char*, double Tle::*> fields[] = {
      {"epoch", &Tle::epoch_jd},
      {"ndot/2", &Tle::mean_motion_dot},
      {"nddot/6", &Tle::mean_motion_ddot},
      {"bstar", &Tle::bstar},
      {"inclination", &Tle::inclination_deg},
      {"raan", &Tle::raan_deg},
      {"eccentricity", &Tle::eccentricity},
      {"argument of perigee", &Tle::arg_perigee_deg},
      {"mean anomaly", &Tle::mean_anomaly_deg},
      {"mean motion", &Tle::mean_motion_revday},
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const auto& [name, field] : fields) {
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf}) {
      Tle tle = make_tle(25544);
      tle.*field = bad;
      EXPECT_THROW(tle.validate(), ValidationError) << name << " = " << bad;
      EXPECT_THROW(static_cast<void>(format_tle(tle)), ValidationError)
          << name << " = " << bad;
    }
  }
}

TEST(TleFieldValidation, NanEpochDayIsQuarantinedAsRange) {
  // The column parser reads "nan" through strtod, and the epoch
  // conversion's range test lets a NaN day through; validation must stop
  // the NaN epoch before it reaches a history.
  std::string line1 = kIssLine1;
  line1.replace(20, 12, "nan         ");
  line1 = restamp(line1);
  EXPECT_THROW(static_cast<void>(parse_tle(line1, kIssLine2)), ValidationError);

  diag::ParseLog log(diag::ParsePolicy::kTolerant);
  TleCatalog catalog;
  const std::string text = line1 + "\n" + kIssLine2 + "\n" + as_text(make_tle(7));
  IngestOptions options;
  options.log = &log;
  EXPECT_EQ(catalog.add_from_text(text, options), 1u);
  ASSERT_EQ(log.quarantined_count(), 1u);
  EXPECT_EQ(log.quarantined()[0].category, ErrorCategory::kRange);
  EXPECT_EQ(log.quarantined()[0].line, 1u);
  EXPECT_TRUE(catalog.history(25544).empty());
}

TEST(TleFieldValidation, NonPlainDecimalFieldsReadAsStrtodReadsThem) {
  // The plain-decimal fast path declines exponents, hex floats and
  // inf/nan; strtod then decides what the field holds.  (A form of more
  // than 15 digits, the fast path's other limit, cannot fit the widest
  // double field, the 12-column epoch day.)
  const auto with_epoch_day = [](const std::string& day) {
    std::string line1 = kIssLine1;
    line1.replace(20, 12, day + std::string(12 - day.size(), ' '));
    return restamp(line1);
  };
  // Each value is the exact double strtod reads from its form.
  const std::pair<std::string, double> read_as[] = {
      {"5.3e+01", 53.0}, {"+5.3e+01", 53.0},  {"53E0", 53.0},
      {"0x1.ap+5", 52.0}, {"+0x1.ap+5", 52.0}, {"264.5e0", 264.5}};
  for (const auto& [form, day] : read_as) {
    const Tle tle = parse_tle(with_epoch_day(form), kIssLine2);
    EXPECT_EQ(tle.epoch_jd, timeutil::tle_epoch_to_julian(8, day)) << form;
  }
  // An infinite day is out of the epoch's range, as a NaN one is not finite.
  for (const std::string form : {"inf", "+inf", "-infinity", "INF"}) {
    EXPECT_THROW(static_cast<void>(parse_tle(with_epoch_day(form), kIssLine2)),
                 ValidationError)
        << form;
  }
  // Malformed forms stay rejected as numeric parse errors.
  for (const std::string form : {"5.3e", "0x", "+", "5..3", "53 1"}) {
    EXPECT_THROW(static_cast<void>(parse_tle(with_epoch_day(form), kIssLine2)),
                 ParseError)
        << form;
  }
}

// ---- truncated input ------------------------------------------------------

TEST(TleCatalogEdge, TruncatedLine1IsNotSilentlyAccepted) {
  // A line 1 cut short no longer looks like a TLE line, so the following
  // line 2 is an orphan — that must be a hard error, not a skipped record.
  TleCatalog catalog;
  const std::string truncated = std::string(kIssLine1).substr(0, 40);
  EXPECT_THROW(catalog.add_from_text(truncated + "\n" + kIssLine2 + "\n"),
               ParseError);
  EXPECT_TRUE(catalog.empty());
}

TEST(TleCatalogEdge, TruncatedLine2RejectedByLength) {
  TleCatalog catalog;
  const std::string truncated = std::string(kIssLine2).substr(0, 68);
  // Truncated line 2 stops looking like a TLE line; the dangling line 1
  // is then detected at end of input.
  EXPECT_THROW(catalog.add_from_text(std::string(kIssLine1) + "\n" + truncated),
               ParseError);
}

TEST(TleCatalogEdge, DanglingLine1AtEofThrows) {
  TleCatalog catalog;
  EXPECT_THROW(catalog.add_from_text(std::string(kIssLine1) + "\n"), ParseError);
}

TEST(TleCatalogEdge, EmptyAndWhitespaceOnlyInputAddsNothing) {
  TleCatalog catalog;
  EXPECT_EQ(catalog.add_from_text(""), 0u);
  EXPECT_EQ(catalog.add_from_text("\n\n\r\n"), 0u);
  EXPECT_TRUE(catalog.empty());
}

// ---- checksum corruption --------------------------------------------------

TEST(TleCatalogEdge, BadChecksumMidCatalogThrowsWithoutCorruptingState) {
  const std::string good = as_text(make_tle(10001));
  std::string corrupted = as_text(make_tle(10002, 1.0));
  // Flip the line-1 checksum digit (last char before the newline).
  std::string::size_type checksum_pos = corrupted.find('\n') - 1;
  corrupted[checksum_pos] = corrupted[checksum_pos] == '0' ? '1' : '0';

  TleCatalog catalog;
  EXPECT_THROW(catalog.add_from_text(good + corrupted + good), ParseError);
  // Records before the corruption were added; the bad one was not.
  EXPECT_EQ(catalog.satellite_count(), 1u);
  EXPECT_EQ(catalog.history(10001).size(), 1u);
  EXPECT_TRUE(catalog.history(10002).empty());
}

TEST(TleCatalogEdge, EveryDigitCorruptionIsCaught) {
  // Property: corrupting any single digit of either line to a different
  // digit must break the checksum or the strict column parse.
  const TleLines lines = format_tle(make_tle(20002, 2.5));
  for (const std::string& base : {lines.line1, lines.line2}) {
    for (std::size_t i = 0; i < base.size(); ++i) {
      if (!std::isdigit(static_cast<unsigned char>(base[i]))) continue;
      std::string corrupted = base;
      corrupted[i] = base[i] == '9' ? '8' : static_cast<char>(base[i] + 1);
      const bool is_line1 = base[0] == '1';
      const std::string& l1 = is_line1 ? corrupted : lines.line1;
      const std::string& l2 = is_line1 ? lines.line2 : corrupted;
      bool rejected = false;
      try {
        const Tle parsed = parse_tle(l1, l2);
        // Corrupting a checksum-neutral pair is impossible for a single
        // digit flip: the checksum must have caught it if fields survived.
        static_cast<void>(parsed);
      } catch (const ParseError&) {
        rejected = true;
      } catch (const ValidationError&) {
        rejected = true;  // e.g. inclination pushed outside [0,180]
      }
      EXPECT_TRUE(rejected) << "undetected corruption at column " << i
                            << " of line '" << base << "'";
    }
  }
}

// ---- duplicate NORAD IDs --------------------------------------------------

TEST(TleCatalogEdge, DuplicateNoradIdMergesIntoOneHistory) {
  TleCatalog catalog;
  // Same satellite listed twice, interleaved with another satellite.
  const std::string text = as_text(make_tle(30001, 0.0)) +
                           as_text(make_tle(30002, 0.0)) +
                           as_text(make_tle(30001, 3.0));
  EXPECT_EQ(catalog.add_from_text(text), 3u);
  EXPECT_EQ(catalog.satellite_count(), 2u);
  ASSERT_EQ(catalog.history(30001).size(), 2u);
  // History is epoch-sorted regardless of input order.
  EXPECT_LT(catalog.history(30001)[0].epoch_jd,
            catalog.history(30001)[1].epoch_jd);
}

TEST(TleCatalogEdge, ExactEpochDuplicateDropped) {
  TleCatalog catalog;
  const std::string record = as_text(make_tle(30003, 1.0));
  EXPECT_EQ(catalog.add_from_text(record + record), 1u);
  EXPECT_EQ(catalog.record_count(), 1u);
  EXPECT_EQ(catalog.history(30003).size(), 1u);
}

TEST(TleCatalogEdge, NearDuplicateEpochWithinOneSecondDropped) {
  TleCatalog catalog;
  EXPECT_TRUE(catalog.add(make_tle(30004, 0.0)));
  EXPECT_FALSE(catalog.add(make_tle(30004, 0.5 / 86400.0)));  // +0.5 s
  EXPECT_TRUE(catalog.add(make_tle(30004, 2.0 / 86400.0)));   // +2 s
  EXPECT_EQ(catalog.history(30004).size(), 2u);
}

// ---- CRLF line endings ----------------------------------------------------

TEST(TleCatalogEdge, CrlfInputParsesIdenticallyToLf) {
  const std::string lf = as_text(make_tle(40001, 0.0)) +
                         as_text(make_tle(40002, 1.0));
  std::string crlf;
  for (const char c : lf) {
    if (c == '\n') crlf += "\r\n";
    else crlf.push_back(c);
  }

  TleCatalog from_lf;
  TleCatalog from_crlf;
  EXPECT_EQ(from_lf.add_from_text(lf), 2u);
  EXPECT_EQ(from_crlf.add_from_text(crlf), 2u);
  EXPECT_EQ(from_lf.to_text(), from_crlf.to_text());
}

// ---- a parse over a file mapping --------------------------------------------

TEST(TleCatalogEdge, MappedParseDropsWhatItParsedAndNothingElse) {
  // A parse over a MappedFile drops each shard's pages once it is parsed.
  // Serially no shard faults back a page its neighbour dropped, so at most
  // one page per shard edge stays resident.  The same bytes parsed through
  // a plain view stay resident, and a heap string is never advised.
  const test_support::ScopedTempDir dir("tle2_mapped_parse");
  const std::string path = dir.path() + "/catalog.tle";
  std::string text;
  std::size_t records = 0;
  for (; text.size() < (std::size_t{8} << 20); ++records) {
    const int k = static_cast<int>(records);
    text += as_text(make_tle(10001 + k % 50, 0.5 * (k / 50)));
  }
  io::write_file(path, text);
  const io::MappedFile mapped(path);
  if (!mapped.is_mapped()) GTEST_SKIP() << "no mmap on this platform";

  constexpr int kShards = 8;
  IngestOptions options{nullptr, 1, path};
  options.num_shards = kShards;
  TleCatalog from_mapping;
  EXPECT_EQ(from_mapping.add_from_text(mapped, 0, options), records);
  const long resident = test_support::resident_bytes(mapped.view().data());
  ASSERT_GE(resident, 0);
  EXPECT_LE(resident, (kShards + 1) * ::sysconf(_SC_PAGESIZE));

  const io::MappedFile held(path);
  TleCatalog from_view;
  EXPECT_EQ(from_view.add_from_text(held.view(), options), records);
  EXPECT_GE(test_support::resident_bytes(held.view().data()),
            static_cast<long>(text.size() / 2));
  EXPECT_EQ(from_view.to_text(), from_mapping.to_text());

  const std::string heap = text;
  TleCatalog from_heap;
  EXPECT_EQ(from_heap.add_from_text(heap, options), records);
  EXPECT_EQ(heap, text);
  // Dropped pages fault back in with the file's bytes.
  EXPECT_EQ(mapped.view(), text);
}

// ---- property-style round trip --------------------------------------------

TEST(TleCatalogEdge, RandomElementSetsRoundTripBitExactly) {
  // format -> parse quantises to the column widths; a second
  // format(parse(...)) pass must then be byte-identical (the module's
  // "symmetric parse/format" contract), and the catalog must survive its
  // own to_text().
  Rng rng(20240511);
  TleCatalog catalog;
  const double base_jd = timeutil::to_julian(timeutil::make_datetime(2021, 1, 1));
  for (int i = 0; i < 200; ++i) {
    Tle tle;
    tle.catalog_number = static_cast<int>(rng.uniform_int(1, 99999));
    tle.international_designator = "21" +
        std::to_string(100 + static_cast<int>(rng.uniform_int(0, 899))) + "A";
    tle.epoch_jd = base_jd + rng.uniform(0.0, 1200.0);
    tle.mean_motion_dot = rng.uniform(-1e-4, 1e-4);
    tle.bstar = rng.uniform(-1e-3, 1e-3);
    tle.inclination_deg = rng.uniform(0.0, 180.0);
    tle.raan_deg = rng.uniform(0.0, 360.0);
    tle.eccentricity = rng.uniform(0.0, 0.1);
    tle.arg_perigee_deg = rng.uniform(0.0, 360.0);
    tle.mean_anomaly_deg = rng.uniform(0.0, 360.0);
    tle.mean_motion_revday = rng.uniform(11.0, 16.5);
    tle.element_set_number = static_cast<int>(rng.uniform_int(0, 9999));
    tle.rev_number = static_cast<int>(rng.uniform_int(0, 99999));

    const TleLines first = format_tle(tle);
    const Tle parsed = parse_tle(first.line1, first.line2);
    const TleLines second = format_tle(parsed);
    ASSERT_EQ(first.line1, second.line1) << "record " << i;
    ASSERT_EQ(first.line2, second.line2) << "record " << i;

    // Quantisation error is bounded by the column widths.
    EXPECT_EQ(parsed.catalog_number, tle.catalog_number);
    EXPECT_NEAR(parsed.inclination_deg, tle.inclination_deg, 1e-4);
    EXPECT_NEAR(parsed.raan_deg, tle.raan_deg, 1e-4);
    EXPECT_NEAR(parsed.eccentricity, tle.eccentricity, 1e-7);
    EXPECT_NEAR(parsed.mean_motion_revday, tle.mean_motion_revday, 1e-8);
    EXPECT_NEAR(parsed.epoch_jd, tle.epoch_jd, 1e-7);

    catalog.add(parsed);
  }

  // Whole-catalog round trip: to_text -> add_from_text reproduces every
  // record (duplicate epochs aside, which the generator avoids w.h.p.).
  TleCatalog reloaded;
  EXPECT_EQ(reloaded.add_from_text(catalog.to_text()), catalog.record_count());
  EXPECT_EQ(reloaded.to_text(), catalog.to_text());
}

// ---- the record formatter against printf ------------------------------------
//
// format_tle_record replaced a formatter built from snprintf calls.  That
// formatter is kept here unchanged as the reference: the new one must give
// its bytes on every record it formatted, and throw ValidationError on
// every record it rejected.

namespace printf_reference {

std::string format_exponent_field(double value) {
  if (value == 0.0) return " 00000-0";
  const char sign = value < 0.0 ? '-' : ' ';
  double magnitude = std::fabs(value);
  int exponent = 0;
  while (magnitude >= 1.0) {
    magnitude /= 10.0;
    ++exponent;
  }
  while (magnitude < 0.1) {
    magnitude *= 10.0;
    --exponent;
  }
  auto mantissa = static_cast<long>(std::llround(magnitude * 100000.0));
  if (mantissa >= 100000) {
    mantissa = 10000;
    ++exponent;
  }
  while (exponent < -9 && mantissa > 0) {
    mantissa /= 10;
    ++exponent;
  }
  if (mantissa == 0) return " 00000-0";
  if (exponent > 9) {
    throw ValidationError("value out of TLE exponent-field range: " +
                          std::to_string(value));
  }
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%c%05ld%c%1d", sign, mantissa,
                exponent < 0 ? '-' : '+', std::abs(exponent));
  return buffer;
}

std::string format_ndot_field(double value) {
  if (std::fabs(value) >= 1.0) {
    throw ValidationError("|ndot/2| must be < 1 rev/day^2 for TLE format: " +
                          std::to_string(value));
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%c.%08ld", value < 0.0 ? '-' : ' ',
                std::labs(std::lround(std::fabs(value) * 1e8)));
  return buffer;
}

TleLines format_tle(const Tle& tle) {
  tle.validate();

  int epoch_year = 0;
  double epoch_doy = 0.0;
  timeutil::julian_to_tle_epoch(tle.epoch_jd, epoch_year, epoch_doy);

  char line1[80];
  std::snprintf(line1, sizeof(line1),
                "1 %05d%c %-8s %02d%012.8f %s %s %s %1d %4d", tle.catalog_number,
                tle.classification, tle.international_designator.c_str(),
                epoch_year, epoch_doy, format_ndot_field(tle.mean_motion_dot).c_str(),
                format_exponent_field(tle.mean_motion_ddot).c_str(),
                format_exponent_field(tle.bstar).c_str(), tle.ephemeris_type,
                tle.element_set_number % 10000);

  const auto ecc_digits =
      static_cast<long>(std::llround(tle.eccentricity * 1e7));
  char line2[80];
  std::snprintf(line2, sizeof(line2),
                "2 %05d %8.4f %8.4f %07ld %8.4f %8.4f %11.8f%5d",
                tle.catalog_number, tle.inclination_deg, tle.raan_deg, ecc_digits,
                tle.arg_perigee_deg, tle.mean_anomaly_deg, tle.mean_motion_revday,
                tle.rev_number % 100000);

  TleLines lines{line1, line2};
  lines.line1 += std::to_string(checksum(lines.line1));
  lines.line2 += std::to_string(checksum(lines.line2));
  if (lines.line1.size() != 69 || lines.line2.size() != 69) {
    throw ValidationError("internal error: formatted TLE has wrong width");
  }
  return lines;
}

}  // namespace printf_reference

/// The new formatter's record, or nullopt when it threw ValidationError.
std::optional<std::string> format_record(const Tle& tle) {
  std::array<char, kTleRecordBytes> record;
  try {
    format_tle_record(tle, record);
  } catch (const ValidationError&) {
    return std::nullopt;
  }
  return std::string(record.data(), record.size());
}

/// The reference's record, or nullopt when it threw ValidationError.
std::optional<std::string> reference_record(const Tle& tle) {
  try {
    const TleLines lines = printf_reference::format_tle(tle);
    return lines.line1 + "\n" + lines.line2 + "\n";
  } catch (const ValidationError&) {
    return std::nullopt;
  }
}

::testing::AssertionResult SameBytesAsPrintf(const Tle& tle) {
  const std::optional<std::string> expected = reference_record(tle);
  const std::optional<std::string> actual = format_record(tle);
  if (!expected) {
    return ::testing::AssertionFailure()
           << "the printf formatter rejected the record"
           << (actual ? ", the new one wrote\n" + *actual : std::string());
  }
  if (!actual) {
    return ::testing::AssertionFailure() << "the new formatter rejected\n"
                                         << *expected;
  }
  if (*actual != *expected) {
    return ::testing::AssertionFailure() << "printf:\n"
                                         << *expected << "new:\n"
                                         << *actual;
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult BothReject(const Tle& tle) {
  const std::optional<std::string> expected = reference_record(tle);
  const std::optional<std::string> actual = format_record(tle);
  if (expected || actual) {
    return ::testing::AssertionFailure()
           << "printf " << (expected ? "wrote\n" + *expected : "rejected")
           << ", new " << (actual ? "wrote\n" + *actual : "rejected");
  }
  return ::testing::AssertionSuccess();
}

/// A record with one field replaced.
template <typename Field, typename Value>
Tle with(Field Tle::*field, Value value) {
  Tle tle = make_tle(25544);
  tle.*field = value;
  return tle;
}

/// The epoch `day_of_year` (1 = Jan 1 00:00) into `year`.
double epoch_in(int year, double day_of_year) {
  return timeutil::to_julian(timeutil::make_datetime(year, 1, 1)) +
         (day_of_year - 1.0);
}

TEST(TleFormatReference, ColumnMinimaAndMaxima) {
  for (const int id : {1, 99999}) {
    EXPECT_TRUE(SameBytesAsPrintf(with(&Tle::catalog_number, id)));
  }
  for (const char c : {'U', 'C', 'S', ' ', '9'}) {
    EXPECT_TRUE(SameBytesAsPrintf(with(&Tle::classification, c)));
  }
  // Years 57..99 are 1957..1999 and 00..56 are 2000..2056.
  for (const int year : {1957, 1999, 2000, 2056}) {
    EXPECT_TRUE(SameBytesAsPrintf(with(&Tle::epoch_jd, epoch_in(year, 1.0))));
    EXPECT_TRUE(
        SameBytesAsPrintf(with(&Tle::epoch_jd, epoch_in(year, 365.5))));
  }
  for (const double ndot : {0.0, 0.99999999, -0.99999999, 5e-9, -4.9e-9}) {
    EXPECT_TRUE(SameBytesAsPrintf(with(&Tle::mean_motion_dot, ndot)));
  }
  for (const double field : {0.99999e9, -0.99999e9, 0.1e-9, 1e-10, 5.4e-11}) {
    EXPECT_TRUE(SameBytesAsPrintf(with(&Tle::bstar, field)));
    EXPECT_TRUE(SameBytesAsPrintf(with(&Tle::mean_motion_ddot, field)));
  }
  for (int type = 0; type <= 9; ++type) {
    EXPECT_TRUE(SameBytesAsPrintf(with(&Tle::ephemeris_type, type)));
  }
  // The element-set and rev numbers print modulo their columns; a negative
  // remainder that still fits prints with its sign, as printf's %4d/%5d do.
  for (const int set : {0, 9999, 10000, 12345, -5, -999, -10999}) {
    EXPECT_TRUE(SameBytesAsPrintf(with(&Tle::element_set_number, set)));
  }
  for (const int rev : {0, 99999, 100000, 1234567, -5, -9999, -109999}) {
    EXPECT_TRUE(SameBytesAsPrintf(with(&Tle::rev_number, rev)));
  }
  for (const double inclination : {0.0, 180.0, 179.99995, 0.00004}) {
    EXPECT_TRUE(SameBytesAsPrintf(with(&Tle::inclination_deg, inclination)));
  }
  for (const double ecc : {0.0, 0.99999994, 1e-7, 0.00000005}) {
    EXPECT_TRUE(SameBytesAsPrintf(with(&Tle::eccentricity, ecc)));
  }
  for (const double mm : {1e-9, 0.5, 9.999999995, 19.99999999, 19.999999996}) {
    EXPECT_TRUE(SameBytesAsPrintf(with(&Tle::mean_motion_revday, mm)));
  }
}

TEST(TleFormatReference, AngleFieldEdges) {
  // 8.4f columns: "999.9999" and "-99.9999" are the widest values that fit.
  for (double Tle::*const angle :
       {&Tle::raan_deg, &Tle::arg_perigee_deg, &Tle::mean_anomaly_deg}) {
    for (const double value :
         {0.0, -0.0, -0.00004, 0.00004, 0.00005, 359.99995, 999.99994,
          -99.99994, 0.03125, 0.09375, -0.03125}) {
      EXPECT_TRUE(SameBytesAsPrintf(with(angle, value))) << value;
    }
  }
}

TEST(TleFormatReference, DayOfYearCarries) {
  // The last instant a leap year keeps prints as day 366.99999999.
  // from_julian rolls the final half millisecond of a year into the next,
  // so no epoch reaches 367.00000000: that instant is the next year's day
  // 0.99999999..., which carries to 001.00000000 under the zero padding.
  const double year_end = epoch_in(2025, 1.0);
  for (const double before : {1e-8, 5.8e-9, 4e-9, 1e-9, 0.0}) {
    EXPECT_TRUE(SameBytesAsPrintf(with(&Tle::epoch_jd, year_end - before)))
        << before;
  }
  EXPECT_EQ(format_tle(with(&Tle::epoch_jd, year_end - 1e-8)).line1.substr(18, 14),
            "24366.99999999");
  EXPECT_EQ(format_tle(with(&Tle::epoch_jd, year_end - 1e-9)).line1.substr(18, 14),
            "25001.00000000");
  EXPECT_TRUE(
      SameBytesAsPrintf(with(&Tle::epoch_jd, epoch_in(2023, 366.0) - 1e-8)));
  // A binary tie at the 8th decimal rounds half to even, as printf does.
  EXPECT_TRUE(SameBytesAsPrintf(
      with(&Tle::epoch_jd, epoch_in(2022, 100.0 + 1.0 / 512.0))));
  EXPECT_TRUE(SameBytesAsPrintf(
      with(&Tle::mean_motion_revday, 15.0 + 1.0 / 512.0)));
  // The carry to 367 that no epoch reaches, checked on the digits alone:
  // to_chars gives "%012.8f"'s bytes for the day column's widest values.
  for (const double day : {366.999999995, 366.9999999951, 999.99999999,
                           0.999999995, 1.0 / 512.0}) {
    char expected[32];
    std::snprintf(expected, sizeof(expected), "%012.8f", day);
    char digits[32];
    const auto result = std::to_chars(std::begin(digits), std::end(digits), day,
                                      std::chars_format::fixed, 8);
    std::string actual(digits, result.ptr);
    actual.insert(0, 12 - actual.size(), '0');
    EXPECT_EQ(actual, expected) << day;
  }
}

TEST(TleFormatReference, MantissaCarries) {
  // Exponent mantissas that round up to 100000 carry into the exponent,
  // and ndot values that round past .99999999 overflow their column.
  for (const double value : {0.999995e-3, 0.999994e-3, 0.9999951e-3, 0.999995,
                             0.999995e-9, 0.99999e-10, 0.999995e8}) {
    for (const double signed_value : {value, -value}) {
      EXPECT_TRUE(SameBytesAsPrintf(with(&Tle::bstar, signed_value)));
      EXPECT_TRUE(SameBytesAsPrintf(with(&Tle::mean_motion_ddot, signed_value)));
    }
  }
  for (const double ndot : {0.000000005, 0.999999994, 0.123456785}) {
    EXPECT_TRUE(SameBytesAsPrintf(with(&Tle::mean_motion_dot, ndot)));
    EXPECT_TRUE(SameBytesAsPrintf(with(&Tle::mean_motion_dot, -ndot)));
  }
}

TEST(TleFormatReference, TinyExponentValuesTakeTheZeroSpelling) {
  for (const double value : {1e-15, 4e-15, 5e-324, 1e-300, 9.9e-16, 1e-14}) {
    for (const double signed_value : {value, -value}) {
      EXPECT_TRUE(SameBytesAsPrintf(with(&Tle::bstar, signed_value)));
      EXPECT_TRUE(SameBytesAsPrintf(with(&Tle::mean_motion_ddot, signed_value)));
    }
  }
  EXPECT_TRUE(SameBytesAsPrintf(with(&Tle::bstar, -0.0)));
  EXPECT_EQ(format_tle(with(&Tle::bstar, 1e-15)).line1.substr(53, 8),
            " 00000-0");
}

TEST(TleFormatReference, DesignatorsOfZeroToEightCharacters) {
  const std::string designator = "98067ABC";
  for (std::size_t length = 0; length <= designator.size(); ++length) {
    EXPECT_TRUE(SameBytesAsPrintf(with(&Tle::international_designator,
                                       designator.substr(0, length))));
  }
  // printf's %s stops at a NUL, so only the text before it counts.
  EXPECT_TRUE(SameBytesAsPrintf(
      with(&Tle::international_designator, std::string("AB\0CDEFGHIJ", 11))));
}

TEST(TleFormatReference, OutOfColumnRecordsThrowOnBoth) {
  EXPECT_TRUE(BothReject(with(&Tle::international_designator, "123456789")));
  EXPECT_TRUE(BothReject(with(&Tle::classification, '\0')));
  EXPECT_TRUE(BothReject(with(&Tle::epoch_jd, 1.0)));  // year -4713
  EXPECT_TRUE(BothReject(with(&Tle::mean_motion_dot, 1.0)));
  EXPECT_TRUE(BothReject(with(&Tle::mean_motion_dot, 0.999999995)));
  EXPECT_TRUE(BothReject(with(&Tle::bstar, 0.999995e9)));
  EXPECT_TRUE(BothReject(with(&Tle::mean_motion_ddot, -1e300)));
  EXPECT_TRUE(BothReject(with(&Tle::ephemeris_type, 10)));
  EXPECT_TRUE(BothReject(with(&Tle::ephemeris_type, -1)));
  EXPECT_TRUE(BothReject(with(&Tle::element_set_number, -1000)));
  EXPECT_TRUE(BothReject(with(&Tle::rev_number, -10000)));
  EXPECT_TRUE(BothReject(with(&Tle::eccentricity, 0.99999995)));
  for (double Tle::*const angle :
       {&Tle::raan_deg, &Tle::arg_perigee_deg, &Tle::mean_anomaly_deg}) {
    for (const double value : {999.99996, 1000.0, -99.99996, -100.0, 1e300}) {
      EXPECT_TRUE(BothReject(with(angle, value))) << value;
    }
  }
  // The message names the field that overflowed.
  try {
    static_cast<void>(format_tle(with(&Tle::raan_deg, 1234.5)));
    ADD_FAILURE() << "RAAN 1234.5 formatted";
  } catch (const ValidationError& error) {
    EXPECT_NE(std::string(error.what()).find("raan"), std::string::npos)
        << error.what();
  }
}

/// A value of magnitude 10^[lo, hi) with a random sign, or zero one time in
/// eight.
double random_exponent_value(Rng& rng, double lo, double hi) {
  if (rng.uniform_int(0, 7) == 0) return 0.0;
  const double magnitude = std::pow(10.0, rng.uniform(lo, hi));
  return rng.bernoulli(0.5) ? -magnitude : magnitude;
}

/// An angle in the columns' range, one time in four a multiple of 1/512 so
/// binary ties at the rounding digit come up.
double random_angle(Rng& rng) {
  if (rng.uniform_int(0, 3) == 0) {
    return static_cast<double>(rng.uniform_int(-51199, 511999)) / 512.0;
  }
  return rng.uniform(-99.9999, 999.9999);
}

/// A random record whose every field fits its columns.
Tle random_valid_record(Rng& rng) {
  static constexpr char kDesignatorChars[] = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ ";
  Tle tle;
  tle.catalog_number = static_cast<int>(rng.uniform_int(1, 99999));
  tle.classification = "UCS"[rng.uniform_int(0, 2)];
  const auto length = static_cast<std::size_t>(rng.uniform_int(0, 8));
  for (std::size_t i = 0; i < length; ++i) {
    tle.international_designator.push_back(
        kDesignatorChars[rng.uniform_int(0, sizeof(kDesignatorChars) - 2)]);
  }
  tle.epoch_jd = epoch_in(1957, 1.0) + rng.uniform(0.0, 36500.0);
  tle.mean_motion_dot = rng.uniform(-0.99999999, 0.99999999) *
                        std::pow(10.0, -rng.uniform(0.0, 9.0));
  tle.mean_motion_ddot = random_exponent_value(rng, -16.0, 8.99);
  tle.bstar = random_exponent_value(rng, -16.0, 8.99);
  tle.ephemeris_type = static_cast<int>(rng.uniform_int(0, 9));
  tle.element_set_number = static_cast<int>(rng.uniform_int(0, 99999));
  tle.inclination_deg = rng.uniform(0.0, 180.0);
  tle.raan_deg = random_angle(rng);
  tle.eccentricity = rng.uniform(0.0, 0.9999999);
  tle.arg_perigee_deg = random_angle(rng);
  tle.mean_anomaly_deg = random_angle(rng);
  tle.mean_motion_revday = rng.uniform_int(0, 3) == 0
                               ? static_cast<double>(rng.uniform_int(1, 10239)) / 512.0
                               : rng.uniform(1e-6, 19.99999999);
  tle.rev_number = static_cast<int>(rng.uniform_int(0, 999999));
  return tle;
}

TEST(TleFormatReference, MillionRandomValidRecordsGiveIdenticalBytes) {
  Rng rng(20261017);
  for (int i = 0; i < 1000000; ++i) {
    ASSERT_TRUE(SameBytesAsPrintf(random_valid_record(rng))) << "record " << i;
  }
}

TEST(TleFormatReference, RandomOutOfColumnRecordsThrowOnBoth) {
  Rng rng(4242);
  const std::function<void(Tle&)> breakers[] = {
      [&](Tle& tle) {
        tle.international_designator =
            std::string(static_cast<std::size_t>(rng.uniform_int(9, 24)), 'X');
      },
      [&](Tle& tle) {
        const double magnitude = std::pow(10.0, rng.uniform(3.0, 12.0));
        tle.raan_deg = rng.bernoulli(0.5) ? -magnitude : magnitude;
      },
      [&](Tle& tle) {
        tle.ephemeris_type = static_cast<int>(rng.uniform_int(10, 2000000000));
      },
      // Negative numbers whose remainder modulo the column no longer fits:
      // "-1000" in the 4-column set number, "-10000" in the 5-column rev.
      [&](Tle& tle) {
        tle.element_set_number = -static_cast<int>(
            10000 * rng.uniform_int(0, 1000) + rng.uniform_int(1000, 9999));
      },
      [&](Tle& tle) {
        tle.rev_number = -static_cast<int>(100000 * rng.uniform_int(0, 1000) +
                                           rng.uniform_int(10000, 99999));
      },
      [&](Tle& tle) {
        const double magnitude = std::pow(10.0, rng.uniform(9.0, 300.0));
        tle.bstar = rng.bernoulli(0.5) ? -magnitude : magnitude;
      },
      [&](Tle& tle) { tle.epoch_jd = 1.0; },
  };
  for (std::size_t kind = 0; kind < std::size(breakers); ++kind) {
    for (int i = 0; i < 2000; ++i) {
      Tle tle = random_valid_record(rng);
      breakers[kind](tle);
      ASSERT_TRUE(BothReject(tle)) << "kind " << kind << " record " << i;
    }
  }
}

}  // namespace
}  // namespace cosmicdance::tle
