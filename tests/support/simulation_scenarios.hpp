// The small constellation scenarios that pin the simulator: each exercises
// one part of a satellite's life the per-satellite decomposition must keep
// (DESIGN.md §20).  `simulation2_test` compares their ground truth with
// digests recorded from the hour-major loop; `parallel_differential_test`
// runs them at several thread counts.
#pragma once

#include <string>
#include <vector>

#include "simulation/scenario.hpp"
#include "spaceweather/generator.hpp"

namespace simulation_scenarios {

struct NamedScenario {
  std::string name;
  cosmicdance::simulation::ConstellationConfig config;
};

/// - `paper_window`: staggered launches over 4.5 years, random upsets,
///   reentries;
/// - `figure3`: pinned NORAD ids and forced failures;
/// - `feb2022`: staging losses in a low deployment, with survivors;
/// - `may2024`: a prelaunched fleet in 100-satellite batches.
/// Every scenario records daily truth.
inline std::vector<NamedScenario> small() {
  using cosmicdance::spaceweather::DstGenerator;
  namespace scenario = cosmicdance::simulation::scenario;
  static const cosmicdance::spaceweather::DstIndex paper =
      DstGenerator(DstGenerator::paper_window_2020_2024()).generate();
  static const cosmicdance::spaceweather::DstIndex superstorm =
      DstGenerator(DstGenerator::with_may_2024_superstorm()).generate();
  std::vector<NamedScenario> scenarios = {
      {"paper_window", scenario::paper_window(&paper, 1, 30.0)},
      {"figure3", scenario::figure3(&paper)},
      {"feb2022", scenario::feb_2022(&paper)},
      {"may2024", scenario::may_2024(&superstorm, 300)}};
  for (NamedScenario& named : scenarios) named.config.record_truth = true;
  return scenarios;
}

}  // namespace simulation_scenarios
