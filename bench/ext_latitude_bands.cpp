// Extension (paper §6, "Finer granularity"): latitude-band analysis.
// Geolocates every TLE at its epoch via SGP4 and aggregates drag per
// |latitude| band across the May-2024 storm window, demonstrating the
// machinery a latitude-resolved study needs once sub-hourly TLEs exist.
#include <iostream>

#include "bench_common.hpp"
#include "core/latitude.hpp"
#include "io/table.hpp"

using namespace cosmicdance;

int main() {
  const spaceweather::DstIndex dst = bench::superstorm_dst();
  auto config = simulation::scenario::may_2024(&dst, /*fleet_size=*/600);
  auto run = simulation::ConstellationSimulator(config).run();
  const core::CosmicDance pipeline(dst, std::move(run.catalog));

  auto report = [&](const char* label, double jd_lo, double jd_hi) {
    io::print_heading(std::cout, label);
    const auto bands = core::latitude_band_drag(
        pipeline.tracks(), pipeline.catalog(), jd_lo, jd_hi, 6);
    io::TablePrinter table({"lat_band_deg", "samples", "dwell_frac",
                            "median_B*", "p95_B*"});
    for (const auto& band : bands) {
      table.add_row({io::TablePrinter::num(band.lat_lo_deg, 0) + "-" +
                         io::TablePrinter::num(band.lat_hi_deg, 0),
                     std::to_string(band.samples),
                     io::TablePrinter::num(band.dwell_fraction, 3),
                     io::TablePrinter::num(band.median_bstar * 1e4, 2) + "e-4",
                     io::TablePrinter::num(band.p95_bstar * 1e4, 2) + "e-4"});
    }
    table.print(std::cout);
  };

  report("Quiet week (May 1-8)",
         timeutil::to_julian(timeutil::make_datetime(2024, 5, 1)),
         timeutil::to_julian(timeutil::make_datetime(2024, 5, 8)));
  report("Storm days (May 10-13)",
         timeutil::to_julian(timeutil::make_datetime(2024, 5, 10)),
         timeutil::to_julian(timeutil::make_datetime(2024, 5, 13)));

  bench::note("physics check: dwell concentrates toward the 53-deg band");
  bench::note("(orbital turning latitude); nothing above 60 deg for this");
  bench::note("fleet.  Storm days lift B* across all bands.  A latitude-");
  bench::note("dependent response needs latitude-resolved density data the");
  bench::note("hourly Dst index cannot provide (the paper's point).");
  return 0;
}
