// Service-hole analysis (paper abstract: premature orbital decay "could
// lead to service holes in such globally spanning connectivity
// infrastructure").
//
// Approximates coverage as satellites-in-view per latitude band (dwell
// share x fleet size) and compares three fleets: healthy, after a severe
// storm's casualties, and after a Carrington-scale event — showing where on
// Earth the lost capacity would be felt.
#include <cmath>
#include <cstdio>
#include <iostream>

#include "io/table.hpp"
#include "sgp4/groundtrack.hpp"
#include "simulation/scenario.hpp"
#include "spaceweather/generator.hpp"

using namespace cosmicdance;

namespace {

/// Dwell share per |latitude| band for one representative 53-degree orbit
/// (every satellite in the shell shares the same distribution).
std::vector<double> dwell_shares(int bands) {
  tle::Tle t;
  t.catalog_number = 45000;
  t.international_designator = "20001A";
  t.epoch_jd = timeutil::to_julian(timeutil::make_datetime(2024, 5, 1));
  t.inclination_deg = 53.05;
  t.eccentricity = 1e-4;
  t.mean_motion_revday = 15.06;
  t.bstar = 0.0;
  const sgp4::Sgp4Propagator propagator(t);
  const auto track = sgp4::ground_track(propagator, t.epoch_jd, 20.0 * 96.0, 1.0);

  std::vector<double> shares(static_cast<std::size_t>(bands), 0.0);
  const double width = 90.0 / bands;
  for (const auto& point : track) {
    auto band = static_cast<std::size_t>(std::fabs(point.latitude_deg) / width);
    if (band >= shares.size()) band = shares.size() - 1;
    shares[band] += 1.0;
  }
  for (double& share : shares) share /= static_cast<double>(track.size());
  return shares;
}

int surviving_fleet(const spaceweather::DstIndex& dst, int fleet,
                    bool proactive) {
  auto config = simulation::scenario::may_2024(&dst, fleet);
  config.end = timeutil::make_datetime(2024, 12, 31);
  config.failures.proactive_response = proactive;
  auto result = simulation::ConstellationSimulator(config).run();
  // Count satellites still station-kept: reentered and permanently decaying
  // ones no longer serve users.
  int serving = result.tracked_at_end;
  for (const auto& failure : result.failures) {
    if (failure.kind == simulation::FailureKind::kPermanentDecay) --serving;
  }
  return std::max(serving, 0);
}

}  // namespace

int main() {
  const int fleet = 600;
  const int bands = 6;
  const auto shares = dwell_shares(bands);

  const auto may = spaceweather::DstGenerator(
                       spaceweather::DstGenerator::with_may_2024_superstorm())
                       .generate();
  const auto carrington =
      spaceweather::DstGenerator(spaceweather::DstGenerator::carrington_what_if())
          .generate();

  const int healthy = fleet;
  const int after_may = surviving_fleet(may, fleet, true);
  const int after_carrington = surviving_fleet(carrington, fleet, false);

  std::printf("serving satellites: healthy %d | after May-2024 %d | after "
              "unmitigated Carrington %d\n",
              healthy, after_may, after_carrington);

  io::print_heading(std::cout,
                    "Mean satellites over each |latitude| band (53-deg shell)");
  io::TablePrinter table({"lat_band", "healthy", "post May-2024",
                          "post Carrington", "capacity lost"});
  for (int b = 0; b < bands; ++b) {
    const double width = 90.0 / bands;
    const double h = shares[static_cast<std::size_t>(b)] * healthy;
    const double m = shares[static_cast<std::size_t>(b)] * after_may;
    const double c = shares[static_cast<std::size_t>(b)] * after_carrington;
    table.add_row({io::TablePrinter::num(b * width, 0) + "-" +
                       io::TablePrinter::num((b + 1) * width, 0),
                   io::TablePrinter::num(h, 1), io::TablePrinter::num(m, 1),
                   io::TablePrinter::num(c, 1),
                   h > 0.0 ? io::TablePrinter::num(100.0 * (h - c) / h, 1) + "%"
                           : "-"});
  }
  table.print(std::cout);

  std::cout << "\nReading: a 53-degree constellation concentrates capacity\n"
               "toward the 45-53 degree band (where most subscribers live);\n"
               "uniform fleet attrition therefore removes the most absolute\n"
               "capacity exactly there — the 'service holes' the paper's\n"
               "abstract warns about.  Mitigation (May 2024) kept the fleet\n"
               "intact; an unmitigated Carrington would not.\n";
  return 0;
}
