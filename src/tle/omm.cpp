#include "tle/omm.hpp"

#include <cctype>
#include <cstdio>
#include <limits>
#include <map>
#include <sstream>

#include "common/error.hpp"

namespace cosmicdance::tle {
namespace {

std::string trim(const std::string& s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) --end;
  return s.substr(begin, end - begin);
}

std::string format_number(double value, int precision = 10) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*g", precision, value);
  return buffer;
}

double require_number(const std::map<std::string, std::string>& kv,
                      const std::string& key) {
  const auto it = kv.find(key);
  if (it == kv.end()) {
    throw ParseError("OMM missing mandatory key " + key,
                     ErrorCategory::kStructure);
  }
  char* end = nullptr;
  const double value = std::strtod(it->second.c_str(), &end);
  // Accept an optional CCSDS unit suffix ("325.0254 [deg]") after the
  // number, but nothing else: "1.5x" must not silently parse as 1.5.
  const char* rest = end;
  while (*rest == ' ' || *rest == '\t') ++rest;
  if (*rest == '[') {
    while (*rest != '\0' && *rest != ']') ++rest;
    if (*rest == ']') ++rest;
    while (*rest == ' ' || *rest == '\t') ++rest;
  }
  if (end == it->second.c_str() || *rest != '\0') {
    throw ParseError("OMM key " + key + " is not numeric: '" + it->second + "'",
                     ErrorCategory::kNumeric);
  }
  return value;
}

/// An integer key: a number whose truncation fits an int, checked before
/// the cast (which is undefined outside that range).
int require_int(const std::map<std::string, std::string>& kv,
                const std::string& key) {
  const double value = require_number(kv, key);
  constexpr double kBelow =
      static_cast<double>(std::numeric_limits<int>::min()) - 1.0;
  constexpr double kAbove =
      static_cast<double>(std::numeric_limits<int>::max()) + 1.0;
  if (!(value > kBelow && value < kAbove)) {
    throw ValidationError("OMM key " + key + " is outside the int range: '" +
                          kv.at(key) + "'");
  }
  return static_cast<int>(value);
}

}  // namespace

std::string to_omm_kvn(const Tle& tle, const std::string& object_name) {
  tle.validate();
  std::ostringstream out;
  out << "CCSDS_OMM_VERS = 2.0\n";
  out << "CREATOR = cosmicdance\n";
  if (!object_name.empty()) out << "OBJECT_NAME = " << object_name << "\n";
  out << "OBJECT_ID = " << tle.international_designator << "\n";
  out << "CENTER_NAME = EARTH\n";
  out << "REF_FRAME = TEME\n";
  out << "TIME_SYSTEM = UTC\n";
  out << "MEAN_ELEMENT_THEORY = SGP4\n";
  out << "EPOCH = " << tle.epoch_datetime().to_string() << "\n";
  out << "MEAN_MOTION = " << format_number(tle.mean_motion_revday, 12) << "\n";
  out << "ECCENTRICITY = " << format_number(tle.eccentricity, 9) << "\n";
  out << "INCLINATION = " << format_number(tle.inclination_deg) << "\n";
  out << "RA_OF_ASC_NODE = " << format_number(tle.raan_deg) << "\n";
  out << "ARG_OF_PERICENTER = " << format_number(tle.arg_perigee_deg) << "\n";
  out << "MEAN_ANOMALY = " << format_number(tle.mean_anomaly_deg) << "\n";
  out << "EPHEMERIS_TYPE = " << tle.ephemeris_type << "\n";
  out << "CLASSIFICATION_TYPE = " << tle.classification << "\n";
  out << "NORAD_CAT_ID = " << tle.catalog_number << "\n";
  out << "ELEMENT_SET_NO = " << tle.element_set_number << "\n";
  out << "REV_AT_EPOCH = " << tle.rev_number << "\n";
  out << "BSTAR = " << format_number(tle.bstar, 10) << "\n";
  out << "MEAN_MOTION_DOT = " << format_number(tle.mean_motion_dot, 10) << "\n";
  out << "MEAN_MOTION_DDOT = " << format_number(tle.mean_motion_ddot, 10) << "\n";
  return out.str();
}

Tle from_omm_kvn(const std::string& text) {
  std::map<std::string, std::string> kv;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) continue;  // comments / blank lines
    kv[trim(line.substr(0, eq))] = trim(line.substr(eq + 1));
  }

  Tle tle;
  tle.catalog_number = require_int(kv, "NORAD_CAT_ID");
  const auto epoch_it = kv.find("EPOCH");
  if (epoch_it == kv.end()) {
    throw ParseError("OMM missing mandatory key EPOCH", ErrorCategory::kStructure);
  }
  tle.epoch_jd = timeutil::to_julian(timeutil::parse_datetime(epoch_it->second));
  tle.mean_motion_revday = require_number(kv, "MEAN_MOTION");
  tle.eccentricity = require_number(kv, "ECCENTRICITY");
  tle.inclination_deg = require_number(kv, "INCLINATION");
  tle.raan_deg = require_number(kv, "RA_OF_ASC_NODE");
  tle.arg_perigee_deg = require_number(kv, "ARG_OF_PERICENTER");
  tle.mean_anomaly_deg = require_number(kv, "MEAN_ANOMALY");

  if (const auto it = kv.find("OBJECT_ID"); it != kv.end()) {
    tle.international_designator = it->second;
  }
  if (const auto it = kv.find("CLASSIFICATION_TYPE");
      it != kv.end() && !it->second.empty()) {
    tle.classification = it->second[0];
  }
  if (kv.count("BSTAR") > 0) tle.bstar = require_number(kv, "BSTAR");
  if (kv.count("MEAN_MOTION_DOT") > 0) {
    tle.mean_motion_dot = require_number(kv, "MEAN_MOTION_DOT");
  }
  if (kv.count("MEAN_MOTION_DDOT") > 0) {
    tle.mean_motion_ddot = require_number(kv, "MEAN_MOTION_DDOT");
  }
  if (kv.count("EPHEMERIS_TYPE") > 0) {
    tle.ephemeris_type = require_int(kv, "EPHEMERIS_TYPE");
  }
  if (kv.count("ELEMENT_SET_NO") > 0) {
    tle.element_set_number = require_int(kv, "ELEMENT_SET_NO");
  }
  if (kv.count("REV_AT_EPOCH") > 0) {
    tle.rev_number = require_int(kv, "REV_AT_EPOCH");
  }
  tle.validate();
  return tle;
}

std::string catalog_to_omm_kvn(const TleCatalog& catalog) {
  std::string out;
  for (const int id : catalog.satellites()) {
    for (const Tle& record : catalog.history(id)) {
      out += to_omm_kvn(record);
      out += "\n";
    }
  }
  return out;
}

std::size_t catalog_add_from_omm_kvn(TleCatalog& catalog, const std::string& text) {
  return catalog_add_from_omm_kvn(catalog, text, nullptr);
}

std::size_t catalog_add_from_omm_kvn(TleCatalog& catalog, const std::string& text,
                                     diag::ParseLog* log,
                                     const std::string& source) {
  constexpr const char* kStage = "omm";
  // Parsed records join the catalog in one add_all() at the end (one
  // merge); a throw first adds those before it, as one add() per record
  // would have.
  std::vector<Tle> parsed;
  std::string block;
  std::size_t block_start_line = 0;
  std::size_t line_number = 0;
  std::istringstream in(text);
  std::string line;
  auto flush = [&]() {
    if (block.find("NORAD_CAT_ID") != std::string::npos) {
      try {
        parsed.push_back(from_omm_kvn(block));
        if (log != nullptr) log->accept(kStage);
      } catch (const Error& error) {
        if (log == nullptr) throw;
        const auto* parse_error = dynamic_cast<const ParseError*>(&error);
        const ErrorCategory category = parse_error != nullptr
                                           ? parse_error->category()
                                           : ErrorCategory::kRange;
        log->reject(kStage, category, error.what(), block,
                    diag::RecordRef{source, block_start_line});
      }
    }
    block.clear();
  };
  try {
    while (std::getline(in, line)) {
      ++line_number;
      if (trim(line).empty()) {
        flush();
      } else {
        // A new message header also terminates the previous block.
        if (line.rfind("CCSDS_OMM_VERS", 0) == 0) flush();
        if (block.empty()) block_start_line = line_number;
        block += line;
        block.push_back('\n');
      }
    }
    flush();
  } catch (...) {
    static_cast<void>(catalog.add_all(parsed));
    throw;
  }
  return catalog.add_all(parsed);
}

}  // namespace cosmicdance::tle
