#include "core/report.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "core/merge.hpp"
#include "io/file.hpp"
#include "spaceweather/storms.hpp"
#include "stats/descriptive.hpp"

namespace cosmicdance::core {
namespace {

/// How many of the strongest storms the report itemises.
constexpr std::size_t kTopStorms = 10;

std::string num(double value, int precision = 2) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  return buffer;
}

}  // namespace

std::string markdown_report(const CosmicDance& pipeline) {
  std::ostringstream out;
  out << "# CosmicDance analysis report\n\n";

  // ---- dataset --------------------------------------------------------------
  const auto& dst = pipeline.dst();
  out << "## Dataset\n\n";
  out << "| | |\n|---|---|\n";
  out << "| Dst window | " << dst.start_datetime().to_string() << " + "
      << dst.size() << " h |\n";
  out << "| TLE records | " << pipeline.catalog().record_count() << " |\n";
  out << "| satellites (cleaned tracks) | " << pipeline.tracks().size()
      << " |\n";
  const auto intervals = pipeline.catalog().refresh_intervals_hours();
  if (!intervals.empty()) {
    out << "| TLE refresh (h, mean/median) | " << num(stats::mean(intervals), 1)
        << " / " << num(stats::median(intervals), 1) << " |\n";
  }
  out << "\n";

  // ---- solar activity ---------------------------------------------------------
  out << "## Solar activity\n\n";
  out << "| category | hours |\n|---|---|\n";
  for (const auto& [category, hours] :
       spaceweather::StormDetector::category_hours(dst)) {
    out << "| " << spaceweather::to_string(category) << " | " << hours << " |\n";
  }
  out << "\n99th-ptile intensity: **"
      << num(pipeline.dst_threshold_at_percentile(99.0), 1)
      << " nT**; strongest hour: **" << num(dst.minimum(), 1) << " nT**.\n\n";

  auto storms = pipeline.storms();
  std::sort(storms.begin(), storms.end(),
            [](const auto& a, const auto& b) { return a.peak_dst_nt < b.peak_dst_nt; });
  out << "### Strongest storms\n\n";
  out << "| onset (UTC) | peak nT | category | hours |\n|---|---|---|---|\n";
  for (std::size_t i = 0; i < storms.size() && i < kTopStorms; ++i) {
    out << "| " << storms[i].start_datetime().to_string().substr(0, 16) << " | "
        << num(storms[i].peak_dst_nt, 0) << " | "
        << spaceweather::to_string(storms[i].category) << " | "
        << storms[i].duration_hours() << " |\n";
  }
  out << "\n";

  // ---- impact ------------------------------------------------------------------
  out << "## Happens-closely-after impact\n\n";
  const double p95 = pipeline.dst_threshold_at_percentile(95.0);
  const auto changes = pipeline.altitude_changes_for_storms(p95);
  if (changes.empty()) {
    out << "No storm-epoch satellite samples available.\n\n";
  } else {
    const auto s = stats::summarize(changes);
    out << "Altitude deviation within " << kEventWindowDays
        << " days after storms stronger than the 95th-ptile threshold ("
        << num(p95, 1) << " nT), " << s.count << " satellite-event samples:\n\n";
    out << "| median | p95 | p99 | max |\n|---|---|---|---|\n";
    out << "| " << num(s.median) << " km | " << num(s.p95) << " km | "
        << num(s.p99) << " km | " << num(s.max, 1) << " km |\n\n";
  }

  out << "### Drag (B*) by geomagnetic context of the prior 24 h\n\n";
  out << "| context | TLEs | median B* |\n|---|---|---|\n";
  for (const auto& row : drag_by_category(pipeline.tracks(), dst)) {
    if (row.samples == 0) continue;
    out << "| " << spaceweather::to_string(row.category) << " | "
        << row.samples << " | " << num(row.median_bstar * 1e4, 2)
        << "e-4 |\n";
  }
  out << "\n";

  out << "---\n*generated by cosmicdance (happens-closely-after semantics; "
         "see the paper's Limitations on manoeuvre confounders).*\n";
  return out.str();
}

void write_markdown_report(const CosmicDance& pipeline, const std::string& path) {
  io::write_file(path, markdown_report(pipeline));
}

}  // namespace cosmicdance::core
