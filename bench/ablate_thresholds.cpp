// Ablation: the pre-decay threshold (paper: 5 km, "empirically set;
// configurable").  Sweeps the threshold and reports how many satellite-event
// samples survive the filter and what the post-storm altitude-change tail
// looks like — showing the trade-off between keeping genuinely affected
// satellites and contaminating the analysis with already-decaying ones.
#include <iostream>

#include "bench_common.hpp"
#include "io/table.hpp"
#include "stats/descriptive.hpp"

using namespace cosmicdance;

int main() {
  const spaceweather::DstIndex dst = bench::paper_dst();
  const tle::TleCatalog catalog = bench::paper_catalog(dst);

  io::print_heading(std::cout, "Ablation: pre-decay threshold sweep (Fig 5b view)");
  io::TablePrinter table({"threshold_km", "samples", "median_km", "p95_km",
                          "p99_km", "max_km"});
  for (const double threshold : {1.0, 2.0, 5.0, 10.0, 20.0, 50.0}) {
    core::PipelineConfig config;
    config.predecay_threshold_km = threshold;
    const core::CosmicDance pipeline(dst, catalog, config);
    const double p95 = pipeline.dst_threshold_at_percentile(95.0);
    const auto changes = pipeline.altitude_changes_for_storms(p95);
    if (changes.empty()) {
      table.add_row({io::TablePrinter::num(threshold, 0), "0"});
      continue;
    }
    const auto s = stats::summarize(changes);
    table.add_row({io::TablePrinter::num(threshold, 0), std::to_string(s.count),
                   io::TablePrinter::num(s.median, 2),
                   io::TablePrinter::num(s.p95, 2),
                   io::TablePrinter::num(s.p99, 2),
                   io::TablePrinter::num(s.max, 1)});
  }
  table.print(std::cout);

  bench::note("expected: a 1-2 km threshold discards satellites whose normal");
  bench::note("manoeuvre jitter exceeds it (fewer samples); a 20-50 km one");
  bench::note("lets already-decaying satellites in, inflating the tail with");
  bench::note("shifts that predate the storm.  The paper's 5 km sits between.");
  return 0;
}
