#include "spaceweather/wdc.hpp"

#include <array>
#include <cmath>
#include <cstdio>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "io/file.hpp"
#include "io/parse.hpp"

namespace cosmicdance::spaceweather {
namespace {

constexpr int kMissing = 9999;

struct DayRecord {
  timeutil::HourIndex first_hour = 0;  // 00 UT of the day
  std::array<int, 24> values{};        // nT (integers, archive convention)
  std::array<bool, 24> present{};
};

std::string format_day(const DayRecord& day) {
  const timeutil::DateTime dt = timeutil::datetime_from_hour_index(day.first_hour);
  char head[32];
  std::snprintf(head, sizeof(head), "DST%02d%02d*%02dRRX %02d0000", dt.year % 100,
                dt.month, dt.day, dt.year / 100);
  std::string line = head;  // cols 1-20 (base value 0000: values are absolute)
  for (int h = 0; h < 24; ++h) {
    char cell[8];
    std::snprintf(cell, sizeof(cell), "%4d", day.present[h] ? day.values[h] : kMissing);
    line += cell;
  }
  // Daily mean over present hours (archive stores it rounded).
  long sum = 0;
  int count = 0;
  for (int h = 0; h < 24; ++h) {
    if (day.present[h]) {
      sum += day.values[h];
      ++count;
    }
  }
  char mean[8];
  std::snprintf(mean, sizeof(mean), "%4d",
                count > 0 ? static_cast<int>(std::lround(
                                static_cast<double>(sum) / count))
                          : kMissing);
  line += mean;
  return line;
}

int parse_int(std::string_view text, const char* what) {
  // Fixed-width archive cells are space-padded, so only the leading number
  // matters; io::parse_leading_long rejects cells with no digits at all.
  // Taking a view keeps the per-cell slice allocation-free.
  const std::optional<long> v = io::parse_leading_long(text);
  if (!v.has_value()) {
    throw ParseError(std::string("bad WDC numeric field '") + what + "': '" +
                     std::string(text) + "'");
  }
  return static_cast<int>(*v);
}

}  // namespace

std::string to_wdc(const DstIndex& dst) {
  if (dst.empty()) return {};
  std::string out;
  // Align to the UT day containing the first sample.
  timeutil::HourIndex hour = dst.start_hour();
  timeutil::HourIndex day_start = hour - ((hour % 24) + 24) % 24;
  while (day_start < dst.end_hour()) {
    DayRecord day;
    day.first_hour = day_start;
    for (int h = 0; h < 24; ++h) {
      const timeutil::HourIndex cursor = day_start + h;
      if (dst.covers(cursor)) {
        day.present[static_cast<std::size_t>(h)] = true;
        day.values[static_cast<std::size_t>(h)] =
            static_cast<int>(std::lround(dst.at(cursor)));
      }
    }
    out += format_day(day);
    out.push_back('\n');
    day_start += 24;
  }
  return out;
}

DstIndex from_wdc(std::string_view text, diag::ParseLog* log,
                  const std::string& source) {
  constexpr const char* kStage = "wdc";
  // Without a caller-supplied log, a local strict one reproduces the
  // historical throw-on-first-error behaviour (with located messages).
  diag::ParseLog fallback;
  diag::ParseLog& diagnostics = log != nullptr ? *log : fallback;

  // One parsed day record: present hourly samples, located for diagnostics.
  struct DaySamples {
    std::size_t line_number = 0;
    std::vector<std::pair<timeutil::HourIndex, int>> hours;  // hour -> nT
  };

  DstIndex dst;
  bool started = false;
  timeutil::HourIndex expected = 0;

  // Single pass: each line is sliced in place (views all the way into
  // parse_int), parsed, and — if it survives — immediately committed to
  // the series.  Parse and structure failures therefore quarantine in
  // strict file order, and under a strict policy the first malformed
  // record of any kind throws, wherever it sits in the file.
  std::size_t line_number = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line = eol == std::string_view::npos
                                ? text.substr(pos)
                                : text.substr(pos, eol - pos);
    pos = eol == std::string_view::npos ? text.size() : eol + 1;
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;
    DaySamples day;
    day.line_number = line_number;
    try {
      if (line.size() < 120) {
        throw ParseError("WDC record shorter than 120 characters: '" +
                         std::string(line) + "'");
      }
      if (line.substr(0, 3) != "DST") {
        throw ParseError("WDC record does not start with DST: '" +
                         std::string(line) + "'");
      }
      const int yy = parse_int(line.substr(3, 2), "year");
      const int month = parse_int(line.substr(5, 2), "month");
      const int date = parse_int(line.substr(8, 2), "day");
      const int century = parse_int(line.substr(14, 2), "century");
      const int base = parse_int(line.substr(16, 4), "base");
      const int year = century * 100 + yy;
      const timeutil::HourIndex day_start = timeutil::hour_index_from_datetime(
          timeutil::make_datetime(year, month, date));
      for (int h = 0; h < 24; ++h) {
        const int value = parse_int(
            line.substr(20 + static_cast<std::size_t>(h) * 4, 4), "hour value");
        if (value == kMissing) continue;
        day.hours.emplace_back(day_start + h, value + base * 100);
      }
    } catch (const ParseError& error) {
      diagnostics.reject(kStage, error.category(), error.what(),
                         std::string(line), diag::RecordRef{source, line_number});
      continue;  // tolerant: quarantine the record and move on
    } catch (const ValidationError& error) {
      diagnostics.reject(kStage, ErrorCategory::kRange, error.what(),
                         std::string(line), diag::RecordRef{source, line_number});
      continue;
    }

    // Commit the day.  Records must be contiguous once missing edges are
    // trimmed; under a tolerant policy interior gaps — missing-value runs
    // or holes left by quarantined days — are linearly interpolated (each
    // filled hour counted as repaired), and out-of-order or duplicate days
    // are quarantined whole.
    if (started && !day.hours.empty() && day.hours.front().first < expected) {
      diagnostics.reject(kStage, ErrorCategory::kStructure,
                         "out-of-order or duplicate WDC day record at hour index " +
                             std::to_string(day.hours.front().first),
                         "", diag::RecordRef{source, day.line_number});
      continue;  // tolerant: drop the whole day
    }
    for (const auto& [hour, value] : day.hours) {
      if (!started) {
        dst = DstIndex(hour, std::vector<double>{});
        expected = hour;
        started = true;
      }
      if (hour > expected) {
        if (!diagnostics.tolerant()) {
          diagnostics.reject(kStage, ErrorCategory::kStructure,
                             "gap in WDC hourly record at hour index " +
                                 std::to_string(hour),
                             "", diag::RecordRef{source, day.line_number});
        }
        const auto gap = static_cast<std::size_t>(hour - expected);
        const double previous = dst.values().back();
        const double step =
            (static_cast<double>(value) - previous) / static_cast<double>(gap + 1);
        for (std::size_t k = 1; k <= gap; ++k) {
          dst.push_back(previous + step * static_cast<double>(k));
        }
        diagnostics.repair(kStage, gap);
        expected = hour;
      }
      dst.push_back(static_cast<double>(value));
      ++expected;
    }
    // A day only counts as accepted once it is committed to the series.
    diagnostics.accept(kStage);
  }
  return dst;
}

void write_wdc_file(const std::string& path, const DstIndex& dst) {
  io::write_file(path, to_wdc(dst));
}

DstIndex read_wdc_file(const std::string& path, diag::ParseLog* log) {
  const io::MappedFile mapped(path);
  return from_wdc(mapped.view(), log, path);
}

}  // namespace cosmicdance::spaceweather
