// Fig 10: CDF of TLE-derived altitudes (a) before cleaning — long tail of
// tracking errors reaching tens of thousands of km — and (b) after removing
// the > 650 km outliers and the orbit-raising windows, revealing the
// operational shell plus a de-orbiting tail below 500 km.
#include <iostream>

#include "bench_common.hpp"
#include "core/analysis.hpp"
#include "io/table.hpp"
#include "stats/descriptive.hpp"
#include "stats/ecdf.hpp"

using namespace cosmicdance;

int main() {
  const spaceweather::DstIndex dst = bench::paper_dst();
  const core::CosmicDance pipeline(dst, bench::paper_catalog(dst));

  const core::Fig10Samples samples =
      core::fig10_samples(pipeline.catalog(), pipeline.tracks());
  const std::span<const double> raw = samples.raw();
  const std::span<const double> cleaned = samples.clean();

  io::print_heading(std::cout, "Fig 10(a): altitude CDF before cleaning");
  const stats::Ecdf raw_ecdf(raw);
  io::TablePrinter before({"quantile", "altitude_km"});
  for (const double q : {0.01, 0.10, 0.50, 0.90, 0.99, 0.999, 0.9999, 1.0}) {
    before.add_row({io::TablePrinter::num(q, 4),
                    io::TablePrinter::num(raw_ecdf.quantile(q), 1)});
  }
  before.print(std::cout);
  bench::expect("max raw altitude (km)", "~40000", stats::max(raw), 0);

  io::print_heading(std::cout, "Fig 10(b): altitude CDF after cleaning");
  const stats::Ecdf clean_ecdf(cleaned);
  io::TablePrinter after({"quantile", "altitude_km"});
  for (const double q : {0.001, 0.01, 0.05, 0.10, 0.50, 0.90, 0.99, 1.0}) {
    after.add_row({io::TablePrinter::num(q, 4),
                   io::TablePrinter::num(clean_ecdf.quantile(q), 1)});
  }
  after.print(std::cout);

  io::print_heading(std::cout, "Cleaning summary");
  std::printf("  raw TLEs: %zu   cleaned TLEs: %zu   removed: %zu (%.2f%%)\n",
              raw.size(), cleaned.size(), raw.size() - cleaned.size(),
              100.0 * static_cast<double>(raw.size() - cleaned.size()) /
                  static_cast<double>(raw.size()));
  bench::expect("cleaned maximum (km)", "<= 650", stats::max(cleaned), 1);
  bench::expect("cleaned median (km; operational shell)", "~550",
                stats::median(cleaned), 1);
  bench::expect("fraction below 500 km (de-orbiting tail)", "small",
                clean_ecdf(500.0), 4);
  return 0;
}
