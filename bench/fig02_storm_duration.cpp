// Fig 2: distribution of storm durations per category.
// Paper: moderate median/p95/p99/max ~ 3 / 15.8 / 19.1 / 19 h;
//        mild ~ 3 / 17 / 24.7 / 29 h; the severe storm lasted 3 h.
#include <iostream>

#include "bench_common.hpp"
#include "io/table.hpp"
#include "spaceweather/storms.hpp"
#include "stats/descriptive.hpp"
#include "stats/ecdf.hpp"

using namespace cosmicdance;

int main() {
  const spaceweather::DstIndex dst = bench::paper_dst();

  io::print_heading(std::cout, "Fig 2: storm duration distribution by category");
  io::TablePrinter table(
      {"category", "events", "median_h", "p95_h", "p99_h", "max_h"});
  for (const auto category :
       {spaceweather::StormCategory::kMinor, spaceweather::StormCategory::kModerate,
        spaceweather::StormCategory::kSevere}) {
    const auto durations =
        spaceweather::StormDetector::durations_for_category(dst, category);
    if (durations.empty()) {
      table.add_row({spaceweather::to_string(category), "0"});
      continue;
    }
    const auto s = stats::summarize(durations);
    table.add_row({spaceweather::to_string(category), std::to_string(s.count),
                   io::TablePrinter::num(s.median, 1),
                   io::TablePrinter::num(s.p95, 1),
                   io::TablePrinter::num(s.p99, 1),
                   io::TablePrinter::num(s.max, 0)});
  }
  table.print(std::cout);

  io::print_heading(std::cout, "Duration CDF points (mild category)");
  const auto mild = spaceweather::StormDetector::durations_for_category(
      dst, spaceweather::StormCategory::kMinor);
  const stats::Ecdf ecdf(mild);
  io::TablePrinter cdf({"duration_h", "cdf"});
  for (const auto& [x, f] : ecdf.points(15)) {
    cdf.add_row({io::TablePrinter::num(x, 0), io::TablePrinter::num(f, 3)});
  }
  cdf.print(std::cout);

  bench::note("paper reference: mild median ~3 h with a long tail to ~29 h;");
  bench::note("moderate median ~3 h, max ~19 h; one 3-hour severe storm.");
  return 0;
}
