#include "tle/tle.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/error.hpp"
#include "orbit/elements.hpp"

namespace cosmicdance::tle {
namespace {

// <cctype> classification resolves through a per-call locale table lookup,
// which the field parsers pay hundreds of times per record.  TLE lines are
// ASCII by definition, so classify bytes directly; both helpers agree with
// the "C"-locale std::isspace/std::isdigit on every char value.
constexpr bool ascii_space(char c) noexcept {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

constexpr bool ascii_digit(char c) noexcept { return c >= '0' && c <= '9'; }

std::string_view trim(std::string_view s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && ascii_space(s[begin])) ++begin;
  while (end > begin && ascii_space(s[end - 1])) --end;
  return s.substr(begin, end - begin);
}

/// Extract columns [from, to] (1-indexed, inclusive) of a line.
std::string_view field(std::string_view line, int from, int to) {
  return line.substr(static_cast<std::size_t>(from - 1),
                     static_cast<std::size_t>(to - from + 1));
}

/// NUL-terminated stack copy of a field view for strtod/strtol, which need
/// terminated input.  check_line has already bounded every field to a
/// 69-character line, so nothing here can approach the buffer size; the
/// allocation-free copy is what keeps the zero-copy parse path free of
/// per-field strings.
class FieldBuffer {
 public:
  explicit FieldBuffer(std::string_view text) {
    const std::size_t size = std::min(text.size(), sizeof(buffer_) - 1);
    std::memcpy(buffer_, text.data(), size);
    buffer_[size] = '\0';
  }
  [[nodiscard]] const char* c_str() const noexcept { return buffer_; }

 private:
  char buffer_[80];
};

// Exact powers of ten: 10^k is an exact double for k <= 22, far past the
// widest TLE field.  Indexed as kPow10[k].
constexpr double kPow10[19] = {1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,
                               1e7,  1e8,  1e9,  1e10, 1e11, 1e12, 1e13,
                               1e14, 1e15, 1e16, 1e17, 1e18};

/// Exact fast path for the plain fixed-width decimals TLE uses: optional
/// sign, digits with at most one '.', no exponent, <= 15 significant
/// digits.  The digits fit a 64-bit integer exactly and 10^frac is an
/// exact double, so mantissa/10^frac is a single correctly-rounded IEEE
/// divide — bit-identical to what strtod produces for the same
/// literal.  Anything fancier (exponents, hex, overlong, malformed)
/// returns false and takes the general path, keeping accept/reject
/// semantics exact.
bool parse_simple_decimal(std::string_view text, double& out) {
  std::size_t i = 0;
  bool negative = false;
  if (text[0] == '-') {
    negative = true;
    i = 1;
  } else if (text[0] == '+') {
    i = 1;
  }
  std::uint64_t mantissa = 0;
  int digits = 0;
  int frac_digits = -1;  // -1 until a '.' is seen
  for (; i < text.size(); ++i) {
    const char c = text[i];
    if (ascii_digit(c)) {
      if (++digits > 15) return false;
      mantissa = mantissa * 10 + static_cast<std::uint64_t>(c - '0');
      if (frac_digits >= 0) ++frac_digits;
      continue;
    }
    if (c == '.' && frac_digits < 0) {
      frac_digits = 0;
      continue;
    }
    return false;
  }
  if (digits == 0) return false;
  const double magnitude =
      static_cast<double>(mantissa) / kPow10[frac_digits > 0 ? frac_digits : 0];
  out = negative ? -magnitude : magnitude;
  return true;
}

double parse_double_field(std::string_view line, int from, int to,
                          const char* what) {
  const std::string_view text = trim(field(line, from, to));
  if (text.empty()) return 0.0;
  double value = 0.0;
  if (parse_simple_decimal(text, value)) return value;
  // Everything else (exponents, hex floats, inf/nan, malformed) is strtod's
  // to accept or reject.
  const FieldBuffer terminated(text);
  char* end = nullptr;
  value = std::strtod(terminated.c_str(), &end);
  if (end == terminated.c_str() || *end != '\0') {
    throw ParseError(std::string("bad TLE field '") + what + "': '" +
                         std::string(text) + "'",
                     ErrorCategory::kNumeric);
  }
  return value;
}

int parse_int_field(std::string_view line, int from, int to, const char* what) {
  const std::string_view text = trim(field(line, from, to));
  if (text.empty()) return 0;
  // All-digit fast loop first (every well-formed TLE integer field lands
  // here); anything else is strtol's to accept or reject.
  if (text.size() <= 9) {
    long fast = 0;
    std::size_t i = text[0] == '-' || text[0] == '+' ? 1 : 0;
    if (i < text.size()) {
      std::size_t j = i;
      for (; j < text.size() && ascii_digit(text[j]); ++j) {
        fast = fast * 10 + (text[j] - '0');
      }
      if (j == text.size()) {
        return static_cast<int>(text[0] == '-' ? -fast : fast);
      }
    }
  }
  const FieldBuffer terminated(text);
  char* end = nullptr;
  const long value = std::strtol(terminated.c_str(), &end, 10);
  if (end == terminated.c_str() || *end != '\0') {
    throw ParseError(std::string("bad TLE field '") + what + "': '" +
                         std::string(text) + "'",
                     ErrorCategory::kNumeric);
  }
  return static_cast<int>(value);
}

/// Parse an "assumed leading decimal point" all-digit field (the line-2
/// eccentricity: "0123456" means 0.0123456).  Any non-digit is an error —
/// an unchecked strtod here would silently read garbage as a truncated
/// value or 0.0 and corrupt the eccentricity series.
double parse_assumed_decimal_field(std::string_view line, int from, int to,
                                   const char* what) {
  const std::string_view raw = field(line, from, to);
  const std::string_view text = trim(raw);
  if (text.empty()) return 0.0;
  // The decimal point is assumed *before the full-width field*, so padding
  // shifts the magnitude: trimming " 006703" to "006703" would misread
  // 0.0006703 as 0.006703.  Demand digits across the whole field.
  if (text.size() != raw.size()) {
    throw ParseError(std::string("bad TLE field '") + what +
                         "' (padded assumed-decimal field): '" + std::string(raw) +
                         "'",
                     ErrorCategory::kNumeric);
  }
  for (const char c : text) {
    if (!ascii_digit(c)) {
      throw ParseError(std::string("bad TLE field '") + what +
                           "' (want digits): '" + std::string(text) + "'",
                       ErrorCategory::kNumeric);
    }
  }
  // All-digits was just validated.  The field is 7 columns, so the value
  // is mantissa/10^width, a single correctly-rounded divide of two exact
  // doubles — bit-identical to converting the composed "0.NNNNNNN" literal.
  std::uint64_t mantissa = 0;
  for (const char c : text) {
    mantissa = mantissa * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return static_cast<double>(mantissa) / kPow10[text.size()];
}

/// Parse the "assumed decimal point" exponent notation, e.g. " 12345-3"
/// meaning +0.12345e-3.  An all-spaces or zero field yields 0.
double parse_exponent_field(std::string_view line, int from, int to,
                            const char* what) {
  const std::string_view raw = field(line, from, to);
  const std::string_view text = trim(raw);
  if (text.empty() || text == "00000-0" || text == "00000+0") return 0.0;
  double sign = 1.0;
  std::size_t i = 0;
  if (text[i] == '-') {
    sign = -1.0;
    ++i;
  } else if (text[i] == '+') {
    ++i;
  }
  const std::size_t mantissa_begin = i;
  while (i < text.size() && ascii_digit(text[i])) {
    ++i;
  }
  const std::string_view mantissa_digits =
      text.substr(mantissa_begin, i - mantissa_begin);
  if (mantissa_digits.empty() || i >= text.size()) {
    throw ParseError(std::string("bad TLE exponent field '") + what + "': '" +
                         std::string(raw) + "'",
                     ErrorCategory::kNumeric);
  }
  double exp_sign = 1.0;
  if (text[i] == '-') exp_sign = -1.0;
  else if (text[i] != '+') {
    throw ParseError(std::string("bad exponent sign in TLE field '") + what +
                         "': '" + std::string(raw) + "'",
                     ErrorCategory::kNumeric);
  }
  ++i;
  if (i >= text.size() || !ascii_digit(text[i]) ||
      i + 1 != text.size()) {
    throw ParseError(std::string("bad exponent digit in TLE field '") + what +
                         "': '" + std::string(raw) + "'",
                     ErrorCategory::kNumeric);
  }
  const int exponent = text[i] - '0';
  // The digits were validated above, and an 8-column field holds at most
  // 6 of them: mantissa/10^width is one correctly-rounded divide of exact
  // doubles, bit-identical to converting the composed "0.NNNNN" literal
  // (see parse_simple_decimal).
  std::uint64_t units = 0;
  for (const char c : mantissa_digits) {
    units = units * 10 + static_cast<std::uint64_t>(c - '0');
  }
  const double mantissa =
      static_cast<double>(units) / kPow10[mantissa_digits.size()];
  // Decimal literals are correctly rounded, so these table entries are
  // bit-identical to what std::pow(10.0, n) returns for |n| <= 9 (glibc's
  // pow is correctly rounded); the lookup just skips the libm call.
  static constexpr double kNegPow10[10] = {1e0,  1e-1, 1e-2, 1e-3, 1e-4,
                                           1e-5, 1e-6, 1e-7, 1e-8, 1e-9};
  const double scale =
      exp_sign < 0.0 ? kNegPow10[exponent] : kPow10[exponent];
  return sign * mantissa * scale;
}

// ---- record formatting -----------------------------------------------------
//
// format_tle_record writes every field in place at its fixed column.  The
// bytes are those of the printf formats the layout is defined by:
//   line 1: "1 %05d%c %-8s %02d%012.8f %s %s %s %1d %4d"
//   line 2: "2 %05d %8.4f %8.4f %07ld %8.4f %8.4f %11.8f%5d"
// std::to_chars with a precision is specified to give printf's "%.*f"
// digits, so only the padding is done here.  A field whose text would be
// wider than its columns throws ValidationError naming the field.

[[noreturn]] void throw_overflow(const char* field, std::string_view text) {
  throw ValidationError(std::string("TLE ") + field +
                        " does not fit its columns: '" + std::string(text) + "'");
}

/// The `width` low decimal digits of `value`, zero-padded.
void put_digits(char* at, std::uint64_t value, std::size_t width) {
  for (std::size_t i = width; i-- > 0;) {
    at[i] = static_cast<char>('0' + value % 10);
    value /= 10;
  }
}

/// Writes `text` right-aligned in `width` columns: after `pad` characters,
/// or for '0' padding after the sign and before the digits, as printf's 0
/// flag does.
void put_padded(char* at, std::size_t width, std::string_view text, char pad,
                const char* field) {
  if (text.size() > width) throw_overflow(field, text);
  const std::size_t fill = width - text.size();
  const std::size_t sign = pad == '0' && text.front() == '-' ? 1 : 0;
  std::memcpy(at, text.data(), sign);
  std::memset(at + sign, pad, fill);
  std::memcpy(at + sign + fill, text.data() + sign, text.size() - sign);
}

/// printf("%*d", width, value), or "%0*d" when pad is '0'.
void put_int(char* at, std::size_t width, int value, const char* field,
             char pad = ' ') {
  char text[16];
  const auto result = std::to_chars(std::begin(text), std::end(text), value);
  put_padded(at, width, std::string_view(text, result.ptr), pad, field);
}

/// printf("%*.*f", width, precision, value), or "%0*.*f" when pad is '0'.
void put_fixed(char* at, std::size_t width, int precision, double value,
               char pad, const char* field) {
  char text[32];
  const auto [end, ec] = std::to_chars(std::begin(text), std::end(text), value,
                                       std::chars_format::fixed, precision);
  if (ec != std::errc{}) throw_overflow(field, std::to_string(value));
  put_padded(at, width, std::string_view(text, end), pad, field);
}

/// The assumed-decimal-point exponent field (8 columns): " 12345-3" is
/// +0.12345e-3.  The normalising loops are the historical ones, kept
/// operation for operation so every mantissa rounds as it always has.
void put_exponent_field(char* at, double value, const char* field) {
  // Zero uses the classic " 00000-0" spelling (what CSpOC emits).
  static constexpr std::string_view kZero = " 00000-0";
  if (value == 0.0) {
    std::memcpy(at, kZero.data(), kZero.size());
    return;
  }
  double magnitude = std::fabs(value);
  int exponent = 0;
  // Normalise to 0.1 <= magnitude < 1 so the mantissa has no leading zero.
  // validate() has rejected infinities, so both loops end.
  while (magnitude >= 1.0) {
    magnitude /= 10.0;
    ++exponent;
  }
  while (magnitude < 0.1) {
    magnitude *= 10.0;
    --exponent;
  }
  long long mantissa = std::llround(magnitude * 100000.0);
  if (mantissa >= 100000) {  // rounding pushed e.g. 0.999999 to 1.0
    mantissa = 10000;
    ++exponent;
  }
  // The exponent column is a single digit.  Values below 1e-10 are encoded
  // with leading zeros in the mantissa (e.g. 5.4e-11 -> " 05400-9"); values
  // too small even for that round to the zero spelling.
  while (exponent < -9 && mantissa > 0) {
    mantissa /= 10;
    ++exponent;
  }
  if (mantissa == 0) {
    std::memcpy(at, kZero.data(), kZero.size());
    return;
  }
  if (exponent > 9) throw_overflow(field, std::to_string(value));
  at[0] = value < 0.0 ? '-' : ' ';
  put_digits(at + 1, static_cast<std::uint64_t>(mantissa), 5);
  at[6] = exponent < 0 ? '-' : '+';
  at[7] = static_cast<char>('0' + std::abs(exponent));
}

/// ndot/2: sign, then ".NNNNNNNN" (10 columns).
void put_ndot_field(char* at, double value) {
  const double magnitude = std::fabs(value);
  const long units = magnitude < 1.0 ? std::lround(magnitude * 1e8) : 0;
  if (magnitude >= 1.0 || units >= 100000000) {
    throw_overflow("ndot/2", std::to_string(value));
  }
  at[0] = value < 0.0 ? '-' : ' ';
  at[1] = '.';
  put_digits(at + 2, static_cast<std::uint64_t>(units), 8);
}

void check_line(std::string_view line, char expected_number) {
  if (line.size() != 69) {
    throw ParseError("TLE line must be 69 characters, got " +
                         std::to_string(line.size()) + ": '" + std::string(line) +
                         "'",
                     ErrorCategory::kSyntax);
  }
  if (line[0] != expected_number) {
    throw ParseError(std::string("TLE line must start with '") + expected_number +
                         "': '" + std::string(line) + "'",
                     ErrorCategory::kSyntax);
  }
  const int expected = checksum(line.substr(0, 68));
  const char checks = line[68];
  if (!ascii_digit(checks) ||
      checks - '0' != expected) {
    throw ParseError("TLE checksum mismatch (expected " + std::to_string(expected) +
                         "): '" + std::string(line) + "'",
                     ErrorCategory::kChecksum);
  }
}

}  // namespace

namespace {

/// Per-character checksum contribution ('0'-'9' count their value, '-'
/// counts 1, everything else 0), precomputed so the hot loop is a
/// branch-free table walk.
constexpr std::array<unsigned char, 256> make_checksum_table() {
  std::array<unsigned char, 256> table{};
  for (int c = '0'; c <= '9'; ++c) {
    table[static_cast<std::size_t>(c)] = static_cast<unsigned char>(c - '0');
  }
  table[static_cast<std::size_t>('-')] = 1;
  return table;
}

constexpr std::array<unsigned char, 256> kChecksumTable = make_checksum_table();

}  // namespace

int checksum(std::string_view line) {
  unsigned sum = 0;
  const char* data = line.data();
  std::size_t n = line.size();
#if defined(__SSE2__)
  // Vectorised digit sum: classify 16 bytes at a time ('0'..'9' add their
  // value, '-' adds 1) and horizontally accumulate with psadbw.  Exact
  // integer arithmetic, so the result is identical to the scalar loop.
  // Signed byte compares are safe: '0'..'9' sit below 0x80, and bytes with
  // the high bit set read as negative and fail the lower-bound compare.
  if (n >= 16) {
    const __m128i zero = _mm_setzero_si128();
    const __m128i below_zero_char = _mm_set1_epi8('0' - 1);
    const __m128i above_nine_char = _mm_set1_epi8('9' + 1);
    const __m128i zero_char = _mm_set1_epi8('0');
    const __m128i dash_char = _mm_set1_epi8('-');
    const __m128i one = _mm_set1_epi8(1);
    __m128i acc = zero;
    do {
      const __m128i c =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data));
      const __m128i digit = _mm_and_si128(_mm_cmpgt_epi8(c, below_zero_char),
                                          _mm_cmpgt_epi8(above_nine_char, c));
      const __m128i value = _mm_and_si128(_mm_sub_epi8(c, zero_char), digit);
      const __m128i dashes =
          _mm_and_si128(_mm_cmpeq_epi8(c, dash_char), one);
      // value <= 9 and the dash mask is disjoint from the digit mask, so
      // the per-byte total never overflows; psadbw against zero sums it.
      acc = _mm_add_epi64(acc, _mm_sad_epu8(_mm_add_epi8(value, dashes), zero));
      data += 16;
      n -= 16;
    } while (n >= 16);
    acc = _mm_add_epi64(acc, _mm_srli_si128(acc, 8));
    sum = static_cast<unsigned>(_mm_cvtsi128_si64(acc));
  }
#endif
  for (std::size_t i = 0; i < n; ++i) {
    sum += kChecksumTable[static_cast<unsigned char>(data[i])];
  }
  return static_cast<int>(sum % 10);
}

timeutil::DateTime Tle::epoch_datetime() const {
  return timeutil::from_julian(epoch_jd);
}

double Tle::altitude_km() const {
  return orbit::altitude_km_from_mean_motion(mean_motion_revday);
}

void Tle::validate() const {
  if (catalog_number < 1 || catalog_number > 99999) {
    throw ValidationError("catalog number outside 1..99999: " +
                          std::to_string(catalog_number));
  }
  if (eccentricity < 0.0 || eccentricity >= 1.0) {
    throw ValidationError("TLE eccentricity outside [0,1): " +
                          std::to_string(eccentricity));
  }
  if (inclination_deg < 0.0 || inclination_deg > 180.0) {
    throw ValidationError("TLE inclination outside [0,180]: " +
                          std::to_string(inclination_deg));
  }
  if (mean_motion_revday <= 0.0 || mean_motion_revday >= 20.0) {
    throw ValidationError("TLE mean motion outside (0,20) rev/day: " +
                          std::to_string(mean_motion_revday));
  }
  if (epoch_jd <= 0.0) throw ValidationError("TLE epoch not set");
  // NaN passes every range test above, and a NaN or infinite field would
  // corrupt an epoch-sorted history or the text formatter.
  const std::pair<const char*, double> fields[] = {
      {"epoch", epoch_jd},
      {"ndot/2", mean_motion_dot},
      {"nddot/6", mean_motion_ddot},
      {"bstar", bstar},
      {"inclination", inclination_deg},
      {"raan", raan_deg},
      {"eccentricity", eccentricity},
      {"argument of perigee", arg_perigee_deg},
      {"mean anomaly", mean_anomaly_deg},
      {"mean motion", mean_motion_revday},
  };
  for (const auto& [name, value] : fields) {
    if (!std::isfinite(value)) {
      throw ValidationError(std::string("TLE ") + name + " is not finite: " +
                            std::to_string(value));
    }
  }
}

Tle parse_tle(std::string_view line1, std::string_view line2) {
  check_line(line1, '1');
  check_line(line2, '2');

  Tle tle;
  tle.catalog_number = parse_int_field(line1, 3, 7, "catalog number");
  const int catalog2 = parse_int_field(line2, 3, 7, "catalog number (line 2)");
  if (tle.catalog_number != catalog2) {
    throw ParseError("catalog number mismatch between TLE lines: " +
                         std::to_string(tle.catalog_number) + " vs " +
                         std::to_string(catalog2),
                     ErrorCategory::kStructure);
  }
  tle.classification = line1[7];
  tle.international_designator = trim(field(line1, 10, 17));

  const int epoch_year = parse_int_field(line1, 19, 20, "epoch year");
  const double epoch_doy = parse_double_field(line1, 21, 32, "epoch day");
  tle.epoch_jd = timeutil::tle_epoch_to_julian(epoch_year, epoch_doy);

  tle.mean_motion_dot = parse_double_field(line1, 34, 43, "ndot/2");
  tle.mean_motion_ddot = parse_exponent_field(line1, 45, 52, "nddot/6");
  tle.bstar = parse_exponent_field(line1, 54, 61, "bstar");
  tle.ephemeris_type = parse_int_field(line1, 63, 63, "ephemeris type");
  tle.element_set_number = parse_int_field(line1, 65, 68, "element set number");

  tle.inclination_deg = parse_double_field(line2, 9, 16, "inclination");
  tle.raan_deg = parse_double_field(line2, 18, 25, "raan");
  tle.eccentricity = parse_assumed_decimal_field(line2, 27, 33, "eccentricity");
  tle.arg_perigee_deg = parse_double_field(line2, 35, 42, "argument of perigee");
  tle.mean_anomaly_deg = parse_double_field(line2, 44, 51, "mean anomaly");
  tle.mean_motion_revday = parse_double_field(line2, 53, 63, "mean motion");
  tle.rev_number = parse_int_field(line2, 64, 68, "rev number");

  tle.validate();
  return tle;
}

void format_tle_record(const Tle& tle, std::span<char, kTleRecordBytes> out) {
  tle.validate();
  // printf's %c wrote a NUL byte, which ended the line early.
  if (tle.classification == '\0') {
    throw ValidationError("TLE classification is a NUL byte");
  }
  char* const line1 = out.data();
  char* const line2 = line1 + 70;
  std::memset(line1, ' ', kTleRecordBytes);

  line1[0] = '1';
  put_digits(line1 + 2, static_cast<std::uint64_t>(tle.catalog_number), 5);
  line1[7] = tle.classification;
  // "%-8s" prints the designator's C string: up to its first NUL.
  const std::string_view designator = tle.international_designator.c_str();
  if (designator.size() > 8) {
    throw_overflow("international designator", designator);
  }
  std::memcpy(line1 + 9, designator.data(), designator.size());
  int epoch_year = 0;
  double epoch_doy = 0.0;
  timeutil::julian_to_tle_epoch(tle.epoch_jd, epoch_year, epoch_doy);
  // A year before 0 leaves a negative remainder, which fits only as "-1"
  // to "-9".
  put_int(line1 + 18, 2, epoch_year, "epoch year", '0');
  put_fixed(line1 + 20, 12, 8, epoch_doy, '0', "epoch day");
  put_ndot_field(line1 + 33, tle.mean_motion_dot);
  put_exponent_field(line1 + 44, tle.mean_motion_ddot, "nddot/6");
  put_exponent_field(line1 + 53, tle.bstar, "bstar");
  put_int(line1 + 62, 1, tle.ephemeris_type, "ephemeris type");
  put_int(line1 + 64, 4, tle.element_set_number % 10000, "element set number");

  line2[0] = '2';
  put_digits(line2 + 2, static_cast<std::uint64_t>(tle.catalog_number), 5);
  put_fixed(line2 + 8, 8, 4, tle.inclination_deg, ' ', "inclination");
  put_fixed(line2 + 17, 8, 4, tle.raan_deg, ' ', "raan");
  const long long eccentricity = std::llround(tle.eccentricity * 1e7);
  if (eccentricity >= 10000000) {
    throw_overflow("eccentricity", std::to_string(tle.eccentricity));
  }
  put_digits(line2 + 26, static_cast<std::uint64_t>(eccentricity), 7);
  put_fixed(line2 + 34, 8, 4, tle.arg_perigee_deg, ' ', "argument of perigee");
  put_fixed(line2 + 43, 8, 4, tle.mean_anomaly_deg, ' ', "mean anomaly");
  put_fixed(line2 + 52, 11, 8, tle.mean_motion_revday, ' ', "mean motion");
  put_int(line2 + 63, 5, tle.rev_number % 100000, "rev number");

  for (char* const line : {line1, line2}) {
    line[68] = static_cast<char>('0' + checksum(std::string_view(line, 68)));
    line[69] = '\n';
  }
}

TleLines format_tle(const Tle& tle) {
  std::array<char, kTleRecordBytes> record;
  format_tle_record(tle, record);
  return {std::string(record.data(), 69), std::string(record.data() + 70, 69)};
}

}  // namespace cosmicdance::tle
