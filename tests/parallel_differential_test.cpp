// The parallel-determinism differential suite: the full pipeline run at 1,
// 2 and 8 threads on identical inputs must produce *bit-identical* outputs
// (floating-point equality including NaN patterns, not tolerances).  This is
// the exec subsystem's ordering contract (DESIGN.md §"Parallel execution")
// checked end to end, plus direct stress tests that hammer the pool with
// uneven task sizes to flush scheduling-dependent ordering bugs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/analysis.hpp"
#include "core/pipeline.hpp"
#include "exec/parallel_for.hpp"
#include "exec/thread_pool.hpp"
#include "io/snapshot.hpp"
#include "obs/obs.hpp"
#include "orbit/elements.hpp"
#include "simulation/scenario.hpp"
#include "spaceweather/generator.hpp"
#include "stats/ecdf.hpp"
#include "support/cdsnap_layout.hpp"
#include "support/simulation_scenarios.hpp"
#include "tle/catalog.hpp"
#include "tle/omm.hpp"
#include "tle/tle.hpp"

namespace cosmicdance {
namespace {

using core::CosmicDance;
using core::EnvelopeSelection;
using core::PipelineConfig;
using core::SatelliteTrack;
namespace cdsnap = test_support::cdsnap;

/// Bitwise double equality: NaN == NaN (same payload), +0 != -0.  The
/// pipeline's per-satellite profiles carry NaN for uncovered days, so plain
/// == would vacuously fail there.
bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

::testing::AssertionResult VectorsBitIdentical(const std::vector<double>& a,
                                               const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size mismatch: " << a.size() << " vs " << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!bits_equal(a[i], b[i])) {
      return ::testing::AssertionFailure()
             << "element " << i << " differs: " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult TracksBitIdentical(
    std::span<const SatelliteTrack> a, std::span<const SatelliteTrack> b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "track count mismatch: " << a.size() << " vs " << b.size();
  }
  for (std::size_t t = 0; t < a.size(); ++t) {
    if (a[t].catalog_number() != b[t].catalog_number()) {
      return ::testing::AssertionFailure()
             << "track " << t << " catalog number differs";
    }
    if (a[t].size() != b[t].size()) {
      return ::testing::AssertionFailure()
             << "track " << t << " sample count differs";
    }
    for (std::size_t i = 0; i < a[t].size(); ++i) {
      const auto& x = a[t].samples()[i];
      const auto& y = b[t].samples()[i];
      if (!bits_equal(x.epoch_jd, y.epoch_jd) ||
          !bits_equal(x.altitude_km, y.altitude_km) ||
          !bits_equal(x.bstar, y.bstar)) {
        return ::testing::AssertionFailure()
               << "track " << t << " sample " << i << " differs";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// Each value's bits, sorted: two samples hold the same multiset of values,
/// bit for bit, exactly when these are equal.
std::vector<std::uint64_t> sorted_bits(std::span<const double> values) {
  std::vector<std::uint64_t> bits;
  bits.reserve(values.size());
  for (const double v : values) bits.push_back(std::bit_cast<std::uint64_t>(v));
  std::sort(bits.begin(), bits.end());
  return bits;
}

/// Fig 10(a)'s sample as the catalog overload of all_altitudes built it:
/// every record's altitude from its mean motion, satellite-major in
/// history order.
std::vector<double> catalog_altitudes(const tle::TleCatalog& catalog) {
  std::vector<double> altitudes;
  for (const int id : catalog.satellites()) {
    for (const double revs_per_day : catalog.history(id).mean_motion_revday()) {
      altitudes.push_back(orbit::altitude_km_from_mean_motion(revs_per_day));
    }
  }
  return altitudes;
}

/// fig10_samples(catalog, tracks) at 1-8 threads: the same buffer at each,
/// its prefix all_altitudes(tracks) in order, and the whole buffer the
/// catalog's altitudes as a multiset, bit for bit.
void expect_fig10_samples_match(const tle::TleCatalog& catalog,
                                std::span<const SatelliteTrack> tracks) {
  const std::vector<double> cleaned = core::all_altitudes(tracks, 1);
  const std::vector<std::uint64_t> raw = sorted_bits(catalog_altitudes(catalog));
  const core::Fig10Samples serial = core::fig10_samples(catalog, tracks, 1);
  for (int threads = 1; threads <= 8; ++threads) {
    const core::Fig10Samples samples =
        core::fig10_samples(catalog, tracks, threads);
    EXPECT_TRUE(VectorsBitIdentical(samples.altitudes, serial.altitudes))
        << "num_threads=" << threads;
    EXPECT_EQ(samples.cleaned, cleaned.size()) << "num_threads=" << threads;
    EXPECT_TRUE(VectorsBitIdentical(
        {samples.clean().begin(), samples.clean().end()}, cleaned))
        << "num_threads=" << threads;
    EXPECT_EQ(sorted_bits(samples.raw()), raw) << "num_threads=" << threads;
  }
}

/// Shared input data plus one pipeline per thread count; generated once
/// (simulation is the expensive part) and reused by every test below.
class ParallelDifferential : public ::testing::Test {
 protected:
  struct State {
    spaceweather::DstIndex dst;
    tle::TleCatalog catalog;
    std::vector<CosmicDance> pipelines;  // threads 1, 2, 8 in order
  };

  static constexpr int kThreadCounts[] = {1, 2, 8};

  static State& state() {
    static State* s = [] {
      auto* out = new State;
      out->dst = spaceweather::DstGenerator(
                     spaceweather::DstGenerator::paper_window_2020_2024())
                     .generate();
      auto config = simulation::scenario::paper_window(&out->dst, 3, 20.0);
      out->catalog = simulation::ConstellationSimulator(config).run().catalog;
      for (const int threads : kThreadCounts) {
        PipelineConfig pipeline_config;
        pipeline_config.num_threads = threads;
        out->pipelines.emplace_back(out->dst, out->catalog, pipeline_config);
      }
      return out;
    }();
    return *s;
  }

  static const CosmicDance& serial() { return state().pipelines[0]; }
};

TEST_F(ParallelDifferential, CleanedTracksBitIdentical) {
  for (std::size_t p = 1; p < state().pipelines.size(); ++p) {
    EXPECT_TRUE(TracksBitIdentical(serial().tracks(),
                                   state().pipelines[p].tracks()))
        << "num_threads=" << kThreadCounts[p];
  }
  // Sanity: the dataset is big enough for a meaningful comparison.
  EXPECT_GT(serial().tracks().size(), 100u);
}

TEST_F(ParallelDifferential, RawTracksBitIdentical) {
  const auto baseline = serial().raw_tracks();
  for (std::size_t p = 1; p < state().pipelines.size(); ++p) {
    const auto other = state().pipelines[p].raw_tracks();
    EXPECT_TRUE(TracksBitIdentical(baseline, other))
        << "num_threads=" << kThreadCounts[p];
  }
}

// Fig 10(a) is the whole fig10_samples buffer, the cleaned tracks'
// altitudes and the removed rows' behind them: as a multiset it must equal
// the uncleaned tracks' altitudes, bit for bit and at every thread count.
TEST_F(ParallelDifferential, CatalogAltitudesEqualRawTrackAltitudes) {
  const auto expected = core::all_altitudes(serial().raw_tracks(), 1);
  ASSERT_EQ(expected.size(), state().catalog.record_count());
  ASSERT_LT(core::all_altitudes(serial().tracks(), 1).size(), expected.size());
  for (std::size_t p = 0; p < state().pipelines.size(); ++p) {
    EXPECT_EQ(sorted_bits(core::fig10_samples(state().catalog,
                                              state().pipelines[p].tracks(),
                                              kThreadCounts[p])
                              .raw()),
              sorted_bits(expected))
        << "num_threads=" << kThreadCounts[p];
  }
  expect_fig10_samples_match(state().catalog, serial().tracks());
}

TEST_F(ParallelDifferential, StormListsIdentical) {
  const auto baseline = serial().storms();
  ASSERT_FALSE(baseline.empty());
  for (std::size_t p = 1; p < state().pipelines.size(); ++p) {
    const auto other = state().pipelines[p].storms();
    ASSERT_EQ(baseline.size(), other.size());
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      EXPECT_EQ(baseline[i].start_hour, other[i].start_hour);
      EXPECT_EQ(baseline[i].end_hour, other[i].end_hour);
      EXPECT_EQ(baseline[i].peak_hour, other[i].peak_hour);
      EXPECT_TRUE(bits_equal(baseline[i].peak_dst_nt, other[i].peak_dst_nt));
      EXPECT_EQ(baseline[i].category, other[i].category);
    }
  }
}

TEST_F(ParallelDifferential, EnvelopesBitIdentical) {
  const double p95 = serial().dst_threshold_at_percentile(95.0);
  const auto epochs = serial().correlator().storm_event_epochs(p95);
  ASSERT_FALSE(epochs.empty());
  const double event_jd = epochs.front();
  for (const auto selection :
       {EnvelopeSelection::kAffectedHumped, EnvelopeSelection::kAll}) {
    const auto baseline = serial().post_event_envelope(event_jd, 30, selection);
    for (std::size_t p = 1; p < state().pipelines.size(); ++p) {
      const auto other =
          state().pipelines[p].post_event_envelope(event_jd, 30, selection);
      EXPECT_EQ(baseline.satellites, other.satellites)
          << "num_threads=" << kThreadCounts[p];
      ASSERT_EQ(baseline.per_satellite.size(), other.per_satellite.size());
      for (std::size_t s = 0; s < baseline.per_satellite.size(); ++s) {
        EXPECT_TRUE(VectorsBitIdentical(baseline.per_satellite[s],
                                        other.per_satellite[s]))
            << "satellite " << s << ", num_threads=" << kThreadCounts[p];
      }
      EXPECT_TRUE(VectorsBitIdentical(baseline.median_km, other.median_km));
      EXPECT_TRUE(VectorsBitIdentical(baseline.p95_km, other.p95_km));
    }
  }
}

TEST_F(ParallelDifferential, CorrelationSampleVectorsBitIdentical) {
  const double p80 = serial().dst_threshold_at_percentile(80.0);
  const double p95 = serial().dst_threshold_at_percentile(95.0);
  const auto storm_baseline = serial().altitude_changes_for_storms(p95);
  const auto quiet_baseline = serial().altitude_changes_for_quiet(p80, 30);
  const auto drag_baseline = serial().drag_changes_for_storms(p95);
  ASSERT_FALSE(storm_baseline.empty());
  for (std::size_t p = 1; p < state().pipelines.size(); ++p) {
    const auto& pipeline = state().pipelines[p];
    EXPECT_TRUE(VectorsBitIdentical(storm_baseline,
                                    pipeline.altitude_changes_for_storms(p95)))
        << "storm samples, num_threads=" << kThreadCounts[p];
    EXPECT_TRUE(VectorsBitIdentical(
        quiet_baseline, pipeline.altitude_changes_for_quiet(p80, 30)))
        << "quiet samples, num_threads=" << kThreadCounts[p];
    EXPECT_TRUE(VectorsBitIdentical(drag_baseline,
                                    pipeline.drag_changes_for_storms(p95)))
        << "drag samples, num_threads=" << kThreadCounts[p];
  }
}

TEST_F(ParallelDifferential, AnalysisAggregationsBitIdentical) {
  const auto altitudes_baseline = core::all_altitudes(serial().tracks(), 1);
  const double start = timeutil::to_julian(serial().dst().start_datetime());
  const auto panel_baseline =
      core::superstorm_panel(serial().tracks(), serial().dst(), start + 100.0,
                             start + 140.0, /*num_threads=*/1);
  ASSERT_FALSE(panel_baseline.empty());
  for (const int threads : {2, 8}) {
    EXPECT_TRUE(VectorsBitIdentical(
        altitudes_baseline, core::all_altitudes(serial().tracks(), threads)));
    const auto panel = core::superstorm_panel(
        serial().tracks(), serial().dst(), start + 100.0, start + 140.0, threads);
    ASSERT_EQ(panel_baseline.size(), panel.size());
    for (std::size_t d = 0; d < panel.size(); ++d) {
      EXPECT_TRUE(bits_equal(panel_baseline[d].day_jd, panel[d].day_jd));
      EXPECT_TRUE(bits_equal(panel_baseline[d].dst_min_nt, panel[d].dst_min_nt));
      EXPECT_TRUE(bits_equal(panel_baseline[d].bstar_mean, panel[d].bstar_mean));
      EXPECT_TRUE(
          bits_equal(panel_baseline[d].bstar_median, panel[d].bstar_median));
      EXPECT_TRUE(bits_equal(panel_baseline[d].bstar_p95, panel[d].bstar_p95));
      EXPECT_EQ(panel_baseline[d].tracked_satellites, panel[d].tracked_satellites);
      EXPECT_EQ(panel_baseline[d].tle_count, panel[d].tle_count);
    }
  }
}

// ---- fig10 samples in one buffer --------------------------------------------

/// A record of satellite `id` at `altitude_km`, `day` days into the window.
tle::Tle record_at(int id, double day, double altitude_km) {
  tle::Tle record;
  record.catalog_number = id;
  record.international_designator = "20001A";
  record.epoch_jd = 2459000.5 + day;
  record.inclination_deg = 53.0;
  record.bstar = 2e-4;
  record.mean_motion_revday = orbit::mean_motion_from_altitude_km(altitude_km);
  return record;
}

/// 64 satellites in four kinds, so every thread count splits them over
/// several chunks: a clean history, one with a gross tracking error in mid
/// history, one that climbs to its shell (orbit raising), and one whose
/// every record is a tracking error, which leaves no track.
tle::TleCatalog fig10_edge_catalog() {
  tle::TleCatalog catalog;
  for (int sat = 0; sat < 64; ++sat) {
    const int id = 50000 + sat;
    for (int k = 0; k < 40; ++k) {
      double altitude = 550.0 - 0.01 * k;
      switch (sat % 4) {
        case 1:
          if (k == 20) altitude = 5000.0 + sat;
          break;
        case 2:
          if (k < 15) altitude = 350.0 + 10.0 * k;
          break;
        case 3:
          altitude = 40000.0 + sat + k;
          break;
        default:
          break;
      }
      catalog.add(record_at(id, 0.5 * k, altitude));
    }
  }
  return catalog;
}

TEST(ParallelDifferentialFig10Samples, EqualTheCatalogWayAtEveryThreadCount) {
  const tle::TleCatalog catalog = fig10_edge_catalog();
  const std::vector<SatelliteTrack> tracks = core::clean_tracks(catalog);
  // Every record of the all-error satellites is gone, and so is one row of
  // each mid-history error and the climb of each raised satellite.
  ASSERT_EQ(tracks.size(), 48u);
  EXPECT_EQ(core::all_altitudes(tracks, 1).size(), 64u * 40u - 16u * 40u -
                                                       16u * 1u - 16u * 15u);
  expect_fig10_samples_match(catalog, tracks);
  // The uncleaned tracks are a subsequence of their histories too: nothing
  // is removed, so the buffer is all prefix.
  const std::vector<SatelliteTrack> raw = core::tracks_from_catalog(catalog);
  expect_fig10_samples_match(catalog, raw);
  EXPECT_EQ(core::fig10_samples(catalog, raw, 4).cleaned,
            catalog.record_count());
}

TEST(ParallelDifferentialFig10Samples, ACatalogWithNoUsableRecord) {
  // No record at all: an empty buffer.
  const tle::TleCatalog empty;
  for (const int threads : {1, 4, 8}) {
    const core::Fig10Samples samples = core::fig10_samples(empty, {}, threads);
    EXPECT_TRUE(samples.altitudes.empty());
    EXPECT_EQ(samples.cleaned, 0u);
  }
  // Every record a tracking error: no track, so no fig10(b), and fig10(a)
  // is every record.
  tle::TleCatalog errors;
  for (int sat = 0; sat < 9; ++sat) {
    for (int k = 0; k < 5; ++k) errors.add(record_at(60000 + sat, k, 40000.0 + k));
  }
  const std::vector<SatelliteTrack> tracks = core::clean_tracks(errors);
  ASSERT_TRUE(tracks.empty());
  expect_fig10_samples_match(errors, tracks);
  EXPECT_EQ(core::fig10_samples(errors, tracks, 4).altitudes.size(), 45u);
}

TEST(ParallelDifferentialFig10Samples, ATrackThatIsNoSubsequenceThrows) {
  const tle::TleCatalog catalog = fig10_edge_catalog();
  const std::vector<SatelliteTrack> clean = core::clean_tracks(catalog);
  const auto forged = [&](std::size_t t, auto&& edit) {
    std::vector<SatelliteTrack> tracks = clean;
    std::vector<core::TrajectorySample> samples(tracks[t].samples().begin(),
                                                tracks[t].samples().end());
    edit(samples);
    tracks[t] = SatelliteTrack(tracks[t].catalog_number(), std::move(samples));
    return tracks;
  };
  const std::vector<std::vector<SatelliteTrack>> cases = {
      // An epoch no record has.
      forged(5, [](auto& s) { s[7].epoch_jd += 1e-6; }),
      // One sample past the history's last record.
      forged(9, [](auto& s) {
        s.push_back(s.back());
        s.back().epoch_jd += 0.5;
      }),
      // A kept row twice.
      forged(0, [](auto& s) { s.insert(s.begin() + 3, s[3]); }),
      // More samples than the satellite has records.
      forged(2, [](auto& s) {
        for (int k = 0; k < 40; ++k) s.push_back(s.back());
      }),
  };
  for (const std::vector<SatelliteTrack>& tracks : cases) {
    for (const int threads : {1, 4, 8}) {
      EXPECT_THROW(static_cast<void>(core::fig10_samples(catalog, tracks, threads)),
                   ValidationError)
          << "num_threads=" << threads;
    }
  }
  // A track of a satellite the catalog does not hold, and two tracks out
  // of catalog order.
  std::vector<SatelliteTrack> stranger = clean;
  stranger.push_back(SatelliteTrack(99999, {clean.front().samples().front()}));
  std::vector<SatelliteTrack> swapped = clean;
  std::swap(swapped[3], swapped[4]);
  for (const auto* tracks : {&stranger, &swapped}) {
    EXPECT_THROW(static_cast<void>(core::fig10_samples(catalog, *tracks, 4)),
                 ValidationError);
  }
}

// ---- the storm cell scan -------------------------------------------------------

/// What the storm scan must produce, from the altitude scan and the drag
/// scan it replaced, one loop each.
struct TwoScans {
  std::vector<double> altitude;
  std::vector<double> drag;
  std::uint64_t predecayed = 0;
  std::uint64_t empty_window = 0;
  std::uint64_t drag_rejected_pre = 0;  ///< cells the drag loop dropped on B*
};

TwoScans two_brute_force_loops(std::span<const SatelliteTrack> tracks,
                               std::span<const double> events) {
  TwoScans want;
  for (const double event : events) {
    for (const SatelliteTrack& track : tracks) {
      if (core::is_pre_decayed(track, event)) {
        ++want.predecayed;
        continue;
      }
      const core::TrajectorySample* pre = track.at_or_before(event);
      const auto window = track.between(event, event + core::kEventWindowDays);
      if (window.empty()) {
        ++want.empty_window;
        continue;
      }
      double deviation = 0.0;
      for (const core::TrajectorySample& sample : window) {
        deviation =
            std::max(deviation, std::fabs(sample.altitude_km - pre->altitude_km));
      }
      want.altitude.push_back(deviation);
    }
  }
  for (const double event : events) {
    for (const SatelliteTrack& track : tracks) {
      if (core::is_pre_decayed(track, event)) continue;
      const core::TrajectorySample* pre = track.at_or_before(event);
      if (pre->bstar <= 0.0) {
        ++want.drag_rejected_pre;
        continue;
      }
      double max_bstar = 0.0;
      for (const core::TrajectorySample& sample :
           track.between(event, event + core::kEventWindowDays)) {
        max_bstar = std::max(max_bstar, sample.bstar);
      }
      if (max_bstar > 0.0) want.drag.push_back(max_bstar / pre->bstar);
    }
  }
  return want;
}

/// change_samples at 1-8 threads against the two loops, with each
/// (event, track) cell counted once in the correlator.* counters; the
/// views give the same samples.
void expect_storm_scan_matches(const spaceweather::DstIndex& dst,
                               std::span<const SatelliteTrack> tracks,
                               std::span<const double> events,
                               const TwoScans& want) {
  for (const int threads : {1, 2, 3, 4, 8}) {
    obs::Metrics metrics;
    const core::EventCorrelator correlator(&dst, core::kPredecayThresholdKm,
                                           threads, &metrics);
    const core::ChangeSamples samples = correlator.change_samples(tracks, events);
    EXPECT_TRUE(VectorsBitIdentical(samples.altitude_km, want.altitude))
        << "num_threads=" << threads;
    EXPECT_TRUE(VectorsBitIdentical(samples.drag_ratio, want.drag))
        << "num_threads=" << threads;
    const obs::MetricsReport report = metrics.snapshot();
    const std::map<std::string, std::uint64_t> expected = {
        {"correlator.cells", events.size() * tracks.size()},
        {"correlator.cells_skipped_empty_window", want.empty_window},
        {"correlator.cells_skipped_no_pre", 0},
        {"correlator.cells_skipped_predecayed", want.predecayed},
        {"correlator.samples", want.altitude.size() + want.drag.size()}};
    EXPECT_EQ(report.counters, expected) << "num_threads=" << threads;
    ASSERT_EQ(report.phases.count("correlator.altitude_scan"), 1u);
    EXPECT_EQ(report.phases.at("correlator.altitude_scan").calls, 1u);
    EXPECT_EQ(report.phases.count("correlator.drag_scan"), 0u);
    EXPECT_TRUE(VectorsBitIdentical(
        correlator.altitude_change_samples(tracks, events), want.altitude));
    EXPECT_TRUE(VectorsBitIdentical(
        correlator.drag_change_samples(tracks, events), want.drag));
  }
}

TEST_F(ParallelDifferential, StormScanEqualsTwoBruteForceLoops) {
  const std::span<const SatelliteTrack> tracks = serial().tracks();
  const double p95 = serial().dst_threshold_at_percentile(95.0);
  const std::vector<double> events =
      serial().correlator().storm_event_epochs(p95);
  ASSERT_FALSE(events.empty());
  const TwoScans want = two_brute_force_loops(tracks, events);
  ASSERT_FALSE(want.altitude.empty());
  ASSERT_FALSE(want.drag.empty());
  ASSERT_GT(want.predecayed, 0u);
  expect_storm_scan_matches(state().dst, tracks, events, want);
}

TEST(ParallelDifferentialStormScan, EveryKindOfCellAtEveryThreadCount) {
  // Eight tracks of each kind, sampled every 12 h, around two events ten
  // days apart that fall between samples:
  //  0. steady: an altitude change and a drag ratio at both events;
  //  1. B* 0 throughout, 2. B* negative until after both events: no drag
  //     ratio, on the pre-event B*;
  //  3. B* negative after the first event: no drag ratio there, on the
  //     window's B*, and none at the second, on the pre-event B*;
  //  4. samples end a day before the first event: an empty window there,
  //     pre-decayed by its gap at the second;
  //  5. 20 km lower from 5 days before the events, 6. samples end 5 days
  //     before them: pre-decayed at both.
  constexpr double kEpoch = 2459500.5;
  std::vector<SatelliteTrack> tracks;
  for (int copy = 0; copy < 8; ++copy) {
    for (int kind = 0; kind < 7; ++kind) {
      std::vector<core::TrajectorySample> samples;
      for (double t = -60.0; t < 45.0; t += 0.5) {
        if ((kind == 4 && t > -1.0) || (kind == 6 && t > -5.0)) break;
        double altitude = 550.0 + copy - (t > 0.0 ? 0.1 * t : 0.0);
        if (kind == 5 && t > -5.0) altitude -= 20.0;
        double bstar =
            2e-4 * (1.0 + 0.01 * copy) * (t > 0.0 ? 1.0 + 0.02 * t : 1.0);
        if (kind == 1) bstar = 0.0;
        if (kind == 2 && t <= 12.0) bstar = -1e-4;
        if (kind == 3 && t > 0.0) bstar = -1e-5;
        samples.push_back({kEpoch + t, altitude, bstar});
      }
      tracks.emplace_back(70000 + 10 * copy + kind, std::move(samples));
    }
  }
  const std::vector<double> events = {kEpoch + 0.25, kEpoch + 10.25};
  const TwoScans want = two_brute_force_loops(tracks, events);
  EXPECT_EQ(want.altitude.size(), 8u * 8);
  EXPECT_EQ(want.drag.size(), 8u * 2);
  EXPECT_EQ(want.empty_window, 8u * 1);
  EXPECT_EQ(want.predecayed, 8u * 5);
  EXPECT_EQ(want.drag_rejected_pre, 8u * 5);
  const spaceweather::DstIndex dst;
  expect_storm_scan_matches(dst, tracks, events, want);
}

// ---- fig10 ECDF points by selection ------------------------------------------

using Points = std::vector<std::pair<double, double>>;

::testing::AssertionResult PointsBitIdentical(const Points& a, const Points& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "point count mismatch: " << a.size() << " vs " << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!bits_equal(a[i].first, b[i].first) ||
        !bits_equal(a[i].second, b[i].second)) {
      return ::testing::AssertionFailure()
             << "point " << i << " differs: (" << a[i].first << ", "
             << a[i].second << ") vs (" << b[i].first << ", " << b[i].second
             << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

constexpr int kSelectionThreadCounts[] = {1, 2, 3, 4, 8};

/// ecdf_points at every thread count against the sort's points, bit for bit.
void expect_selection_matches_the_sort(std::span<const double> sample,
                                       std::size_t max_points) {
  const Points expected = stats::Ecdf(sample).points(max_points);
  for (const int threads : kSelectionThreadCounts) {
    EXPECT_TRUE(PointsBitIdentical(
        stats::ecdf_points(sample, max_points, threads), expected))
        << "n=" << sample.size() << " max_points=" << max_points
        << " threads=" << threads;
  }
}

TEST(ParallelDifferentialEcdfPoints, MatchTheSortAtEveryThreadCount) {
  // Past 2^20 samples, so the histograms count every chunk the plan allows;
  // the odd size leaves the chunk bounds unaligned.  A third heavy
  // duplicates (quarter-steps in [-40, 40], never -0.0), a third uniform
  // values of both signs, and an ascending presorted run.
  constexpr std::size_t kSamples = (std::size_t{1} << 20) + 4097;
  Rng rng(20261017);
  std::vector<double> sample;
  sample.reserve(kSamples);
  while (sample.size() < kSamples / 3) {
    sample.push_back(static_cast<double>(rng.uniform_int(-160, 160)) / 4.0);
  }
  while (sample.size() < 2 * kSamples / 3) {
    sample.push_back(rng.uniform(-1000.0, 1000.0));
  }
  for (std::size_t i = 0; sample.size() < kSamples; ++i) {
    sample.push_back(-500.0 + static_cast<double>(i) * 1e-3);
  }
  for (const std::size_t max_points : {std::size_t{400}, std::size_t{7},
                                       std::size_t{5000}}) {
    expect_selection_matches_the_sort(sample, max_points);
  }
}

TEST(ParallelDifferentialEcdfPoints, EdgeCasesMatchTheSort) {
  Rng rng(7);
  std::vector<double> spread;
  for (int i = 0; i < 401; ++i) spread.push_back(rng.uniform(300.0, 600.0));
  // n below, at and one past max_points: every rank, then a stride of 2.
  expect_selection_matches_the_sort(std::span(spread).first(399), 400);
  expect_selection_matches_the_sort(std::span(spread).first(400), 400);
  expect_selection_matches_the_sort(spread, 400);
  // One value; one value repeated across several chunks.
  expect_selection_matches_the_sort(std::vector<double>{550.25}, 400);
  expect_selection_matches_the_sort(std::vector<double>(200000, -42.5), 400);
  // Heavy ties of both signs with the infinities, across several chunks.
  const double inf = std::numeric_limits<double>::infinity();
  const double levels[] = {-inf, -1e300, -3.0, -1.5, 0.0, 2.0, 7.0, 1e-300,
                           inf};
  std::vector<double> ties;
  for (int i = 0; i < 200000; ++i) {
    ties.push_back(levels[rng.uniform_int(0, 8)]);
  }
  for (const std::size_t max_points :
       {std::size_t{1}, std::size_t{3}, std::size_t{400}}) {
    expect_selection_matches_the_sort(ties, max_points);
  }
  // Two values a key apart, and the tail out past a gross error.
  expect_selection_matches_the_sort(
      std::vector<double>{1.0, std::nextafter(1.0, 2.0), 1.0}, 2);
  std::vector<double> tailed(100000, 0.0);
  for (std::size_t i = 0; i < tailed.size(); ++i) {
    tailed[i] = i % 1000 == 0 ? rng.uniform(2000.0, 40000.0)
                              : 550.0 + rng.uniform(-0.5, 0.5);
  }
  expect_selection_matches_the_sort(tailed, 400);
  // Every rank of it: each selected bucket holds many wanted ranks.
  expect_selection_matches_the_sort(tailed, tailed.size());
  EXPECT_TRUE(stats::ecdf_points(tailed, 0, 4).empty());
}

TEST(ParallelDifferentialEcdfPoints, NegativeZeroRanksBelowPositiveZero) {
  // std::sort leaves a mix of 0.0 and -0.0 in any order; the selection's
  // keys rank every -0.0 first.  Its points are the sort's under that
  // order, bit for bit, and compare equal to Ecdf's either way.
  Rng rng(11);
  std::vector<double> sample;
  for (int i = 0; i < 100000; ++i) {
    const int pick = rng.uniform_int(0, 3);
    sample.push_back(pick == 0 ? -0.0 : pick == 1 ? 0.0 : rng.uniform(-1.0, 1.0));
  }
  std::vector<double> key_order = sample;
  std::sort(key_order.begin(), key_order.end(), [](double a, double b) {
    return a < b || (a == b && std::signbit(a) && !std::signbit(b));
  });
  for (const std::size_t max_points : {std::size_t{400}, std::size_t{100000}}) {
    const Points pinned = stats::ecdf_points_of_sorted(key_order, max_points);
    const Points sorted = stats::Ecdf(sample).points(max_points);
    for (const int threads : kSelectionThreadCounts) {
      const Points got = stats::ecdf_points(sample, max_points, threads);
      EXPECT_TRUE(PointsBitIdentical(got, pinned)) << "threads=" << threads;
      EXPECT_EQ(got, sorted) << "threads=" << threads;
    }
  }
  // Every -0.0 ranks below every 0.0: a stride-1 read shows the switch.
  const Points all =
      stats::ecdf_points(std::vector<double>{0.0, -0.0, 0.0, -0.0}, 4, 2);
  ASSERT_EQ(all.size(), 4u);
  EXPECT_TRUE(std::signbit(all[0].first) && std::signbit(all[1].first));
  EXPECT_FALSE(std::signbit(all[2].first) || std::signbit(all[3].first));
}

TEST(ParallelDifferentialEcdfPoints, NanOrAnEmptySampleIsAValidationError) {
  std::vector<double> sample(100000, 1.0);
  for (std::size_t i = 0; i < sample.size(); ++i) {
    sample[i] = static_cast<double>(i % 977);
  }
  for (const double nan : {std::numeric_limits<double>::quiet_NaN(),
                           -std::numeric_limits<double>::quiet_NaN()}) {
    for (const std::size_t at : {std::size_t{0}, std::size_t{65537},
                                 sample.size() - 1}) {
      std::vector<double> poisoned = sample;
      poisoned[at] = nan;
      for (const int threads : kSelectionThreadCounts) {
        EXPECT_THROW(static_cast<void>(stats::ecdf_points(poisoned, 400, threads)),
                     ValidationError)
            << "at=" << at << " threads=" << threads;
      }
    }
  }
  EXPECT_THROW(static_cast<void>(stats::ecdf_points({}, 400, 4)), ValidationError);
}

// ---- parallel TLE text -------------------------------------------------------

/// A simulated fleet small enough for the TSan pass: 28 satellites whose
/// histories differ in length, so the satellite offsets are uneven.
const tle::TleCatalog& text_catalog() {
  static const tle::TleCatalog catalog = [] {
    const spaceweather::DstIndex dst =
        spaceweather::DstGenerator(
            spaceweather::DstGenerator::paper_window_2020_2024())
            .generate();
    const auto config = simulation::scenario::paper_window(&dst, 2, 120.0);
    return simulation::ConstellationSimulator(config).run().catalog;
  }();
  return catalog;
}

/// A copy of `catalog` with a record that has no TLE spelling (RAAN beyond
/// the 8-column field) appended to satellite number `index`.
tle::TleCatalog with_unformattable_raan(const tle::TleCatalog& catalog,
                                        std::size_t index, double raan_deg) {
  tle::TleCatalog out = catalog;
  const int id = catalog.satellites().at(index);
  tle::Tle record = catalog.history(id).back();
  record.epoch_jd += 1.0;
  record.raan_deg = raan_deg;
  EXPECT_TRUE(out.add(record));
  return out;
}

TEST(ParallelDifferentialTleText, EqualsSerialFormatTleAtEveryThreadCount) {
  const tle::TleCatalog& catalog = text_catalog();
  ASSERT_GT(catalog.satellite_count(), 16u);
  std::string expected;
  for (const int id : catalog.satellites()) {
    for (const tle::Tle& record : catalog.history(id)) {
      const tle::TleLines lines = tle::format_tle(record);
      expected += lines.line1 + "\n" + lines.line2 + "\n";
    }
  }
  ASSERT_EQ(expected.size(), catalog.record_count() * tle::kTleRecordBytes);
  for (const int threads : {1, 2, 3, 4, 8}) {
    // Not EXPECT_EQ: a mismatch would print megabytes of text.
    EXPECT_TRUE(catalog.to_text(threads) == expected) << "threads=" << threads;
  }
}

TEST(ParallelDifferentialTleText, EmptyCatalogGivesEmptyText) {
  const tle::TleCatalog empty;
  for (const int threads : {1, 2, 3, 4, 8}) {
    EXPECT_EQ(empty.to_text(threads), "") << "threads=" << threads;
  }
}

TEST(ParallelDifferentialTleText, UnformattableRecordThrowsAtEveryThreadCount) {
  const tle::TleCatalog one_bad = with_unformattable_raan(text_catalog(), 9, 1234.5);
  // With two bad satellites, the error is the first one's at any thread
  // count, as a serial pass would report it.
  const tle::TleCatalog two_bad = with_unformattable_raan(one_bad, 20, 5678.5);
  for (const int threads : {1, 2, 3, 4, 8}) {
    EXPECT_THROW(static_cast<void>(one_bad.to_text(threads)), ValidationError)
        << "threads=" << threads;
    try {
      static_cast<void>(two_bad.to_text(threads));
      ADD_FAILURE() << "threads=" << threads << ": no error";
    } catch (const ValidationError& error) {
      EXPECT_NE(std::string(error.what()).find("1234.5"), std::string::npos)
          << "threads=" << threads << ": " << error.what();
    }
  }
}

// ---- the constellation simulator ---------------------------------------------

// Each satellite's whole life is one task drawing from its own streams, and
// the join runs in a fixed order (DESIGN.md §20): the catalog's bytes, the
// failures in order, the counts and the truth must not move with the
// thread count.
// ---- the columnar catalog ---------------------------------------------------
//
// The catalog keeps every record's fields in catalog-wide columns, and the
// .cdsnap catalog stripes (since v9) carry those columns as blocks that
// decode workers copy straight into the laid-out catalog, each into its own
// satellites' rows.

/// A record with every field set from (satellite, k), so a field carried to
/// the wrong row or column shows.
tle::Tle column_record(int catalog_number, int k) {
  tle::Tle record;
  record.catalog_number = catalog_number;
  record.classification = k % 3 == 0 ? 'S' : 'U';
  record.international_designator = k % 2 == 0 ? "20001A" : "20001B";
  record.epoch_jd = 2460400.5 + 0.25 * k + 1e-3 * (catalog_number % 7);
  record.mean_motion_dot = 1e-5 * (k % 5);
  record.mean_motion_ddot = 1e-9 * (k % 3);
  record.bstar = 1e-4 + 1e-7 * k;
  record.ephemeris_type = k % 2;
  record.element_set_number = 100 + k % 900;
  record.inclination_deg = 53.0 + 0.001 * catalog_number;
  record.raan_deg = std::fmod(10.0 + 3.7 * k, 360.0);
  record.eccentricity = 1e-4 * (1 + k % 4);
  record.arg_perigee_deg = std::fmod(90.0 + 1.3 * k, 360.0);
  record.mean_anomaly_deg = std::fmod(45.0 + 5.9 * k, 360.0);
  record.mean_motion_revday = 15.05 + 1e-4 * (k % 11);
  record.rev_number = 1000 + k;
  return record;
}

std::string text_of(const tle::Tle& record) {
  const tle::TleLines lines = tle::format_tle(record);
  return lines.line1 + "\n" + lines.line2 + "\n";
}

/// Two catalogs hold the same records with every field equal, the
/// designator by its text.
::testing::AssertionResult CatalogsEqual(const tle::TleCatalog& a,
                                         const tle::TleCatalog& b) {
  if (a.satellites() != b.satellites() || a.record_count() != b.record_count()) {
    return ::testing::AssertionFailure() << "satellites or record counts differ";
  }
  for (const int id : a.satellites()) {
    const tle::HistoryView x = a.history(id);
    const tle::HistoryView y = b.history(id);
    if (x.size() != y.size()) {
      return ::testing::AssertionFailure() << "satellite " << id << " sizes differ";
    }
    for (std::size_t c = 0; c < tle::kColumnCount; ++c) {
      if (c == tle::kDesignatorColumn) continue;
      const auto p = x.column_bytes(c);
      const auto q = y.column_bytes(c);
      if (!std::equal(p.begin(), p.end(), q.begin(), q.end())) {
        return ::testing::AssertionFailure()
               << "satellite " << id << " column " << c << " differs";
      }
    }
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (x[i].international_designator != y[i].international_designator) {
        return ::testing::AssertionFailure()
               << "satellite " << id << " record " << i << " designator differs";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// Where each (satellite, column) starts in the catalog's block.
std::map<std::pair<int, std::size_t>, const unsigned char*> column_addresses(
    const tle::TleCatalog& catalog) {
  std::map<std::pair<int, std::size_t>, const unsigned char*> at;
  for (const int id : catalog.satellites()) {
    for (std::size_t c = 0; c < tle::kColumnCount; ++c) {
      at[{id, c}] = catalog.history(id).column_bytes(c).data();
    }
  }
  return at;
}

/// The bytes of a snapshot of `catalog`, encoded over `threads` workers.
std::string snapshot_bytes_of(const tle::TleCatalog& catalog, int threads) {
  std::ostringstream out;
  io::write_snapshot(out, io::SnapshotData{{}, catalog, {}, {}}, nullptr, threads);
  return std::move(out).str();
}

/// 60 satellites of 1 to 900 records each (several stripes), two designators
/// and two classifications in every history of more than one record.
const tle::TleCatalog& column_catalog() {
  static const tle::TleCatalog catalog = [] {
    std::string text;
    for (int s = 0; s < 60; ++s) {
      const int records = 1 + (s * 397) % 900;
      for (int k = 0; k < records; ++k) text += text_of(column_record(20001 + s, k));
    }
    tle::TleCatalog parsed;
    parsed.add_from_text(text);
    return parsed;
  }();
  return catalog;
}

TEST(ParallelDifferentialCatalogColumns, V9BytesAndDecodedCatalogAtEveryThreadCount) {
  const tle::TleCatalog& catalog = column_catalog();
  const std::string serial = snapshot_bytes_of(catalog, 1);
  const std::optional<io::SnapshotData> reference =
      io::decode_snapshot(serial, diag::ParsePolicy::kStrict, 1);
  ASSERT_TRUE(reference.has_value());
  EXPECT_TRUE(CatalogsEqual(reference->catalog, catalog));
  for (const int threads : {2, 3, 4, 8}) {
    EXPECT_TRUE(snapshot_bytes_of(catalog, threads) == serial) << "threads=" << threads;
    const std::optional<io::SnapshotData> decoded =
        io::decode_snapshot(serial, diag::ParsePolicy::kStrict, threads);
    ASSERT_TRUE(decoded.has_value()) << "threads=" << threads;
    EXPECT_TRUE(CatalogsEqual(decoded->catalog, catalog)) << "threads=" << threads;
    EXPECT_EQ(decoded->catalog.to_text(threads), catalog.to_text());
    // The decoded catalog encodes to the same bytes: its designator table
    // may be ordered differently, the stripes' tables are not.
    EXPECT_TRUE(snapshot_bytes_of(decoded->catalog, threads) == serial);
  }
}

TEST(ParallelDifferentialCatalogColumns, DecodePlusADailyAppendEqualsAReparseInPlace) {
  // An append run adds records to the catalog a snapshot decoded, and the
  // catalog equals a full parse of the grown text.  A daily tail (one
  // record per satellite) lands in every satellite's spare rows: no column
  // moves.  A launch-day tail also brings 28 new satellites, more records
  // than one satellite's spare rows and a record older than another's
  // last: the new and the outgrown satellites go to the free rows, and
  // every other satellite stays where it is, the one with the older record
  // included.  Histories of 1 and of 300 records.
  std::string base;
  std::string day;
  for (int i = 0; i < 40; ++i) {
    const int records = i % 2 == 0 ? 1 : 300;
    for (int k = 0; k < records; ++k) base += text_of(column_record(10001 + i, k));
    day += text_of(column_record(10001 + i, records));
  }
  std::string launch = day;
  for (int k = 301; k <= 330; ++k) launch += text_of(column_record(10002, k));
  tle::Tle older = column_record(10004, 150);
  older.epoch_jd += 0.1;
  launch += text_of(older);
  for (int s = 0; s < 28; ++s) {
    for (int k = 0; k <= s % 4; ++k) {
      launch += text_of(column_record(10101 + s, k));
    }
  }
  tle::TleCatalog parsed;
  parsed.add_from_text(base);
  const std::string snapshot = snapshot_bytes_of(parsed, 1);
  const auto append = [&](const std::string& tail, std::size_t added,
                          const std::set<int>& moving, int threads) {
    std::optional<io::SnapshotData> decoded =
        io::decode_snapshot(snapshot, diag::ParsePolicy::kStrict, threads);
    ASSERT_TRUE(decoded.has_value());
    const auto placed = column_addresses(decoded->catalog);
    ASSERT_EQ(placed.size(), 40u * tle::kColumnCount);

    EXPECT_EQ(decoded->catalog.add_from_text(
                  tail, tle::IngestOptions{nullptr, threads, "", nullptr, 1, 0}),
              added);
    for (const auto& [key, data] : placed) {
      if (moving.count(key.first) > 0) continue;
      EXPECT_EQ(decoded->catalog.history(key.first).column_bytes(key.second).data(),
                data)
          << "satellite " << key.first << " column " << key.second << " moved";
    }
    tle::TleCatalog full;
    full.add_from_text(base + tail);
    EXPECT_TRUE(CatalogsEqual(decoded->catalog, full)) << "threads=" << threads;
    EXPECT_EQ(decoded->catalog.to_text(), full.to_text());
  };
  for (const int threads : {1, 4}) {
    append(day, 40, {}, threads);
    append(launch, 40 + 30 + 1 + 70, {10002}, threads);
  }
}

TEST(ParallelDifferentialCatalogColumns, DesignatorsAndClassificationsRoundTripExactly) {
  // One satellite whose records carry two designators and two
  // classifications, and an OMM OBJECT_ID longer than a TLE's 8 columns:
  // every record comes back with its own, through the snapshot and the
  // OMM codec.
  tle::TleCatalog catalog;
  for (int k = 0; k < 12; ++k) ASSERT_TRUE(catalog.add(column_record(30001, k)));
  tle::Tle long_id = column_record(30002, 0);
  long_id.international_designator = "2020-001ABC-EXTENDED";
  ASSERT_TRUE(catalog.add(long_id));

  const std::optional<io::SnapshotData> decoded = io::decode_snapshot(
      snapshot_bytes_of(catalog, 2), diag::ParsePolicy::kStrict, 2);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(CatalogsEqual(decoded->catalog, catalog));
  const tle::HistoryView history = decoded->catalog.history(30001);
  ASSERT_EQ(history.size(), 12u);
  for (std::size_t k = 0; k < history.size(); ++k) {
    const tle::Tle expected = column_record(30001, static_cast<int>(k));
    EXPECT_EQ(history[k].international_designator, expected.international_designator);
    EXPECT_EQ(history[k].classification, expected.classification);
  }
  EXPECT_EQ(decoded->catalog.history(30002).front().international_designator,
            "2020-001ABC-EXTENDED");

  const std::string kvn = tle::catalog_to_omm_kvn(catalog);
  tle::TleCatalog from_omm;
  EXPECT_EQ(tle::catalog_add_from_omm_kvn(from_omm, kvn), catalog.record_count());
  EXPECT_EQ(tle::catalog_to_omm_kvn(from_omm), kvn);
  EXPECT_EQ(from_omm.history(30002).front().international_designator,
            "2020-001ABC-EXTENDED");
}

TEST(ParallelDifferentialCatalogColumns, CorruptColumnBlocksReject) {
  const std::string good = snapshot_bytes_of(column_catalog(), 1);
  const cdsnap::StripeAt stripe = cdsnap::stripe_at(good, 0);
  ASSERT_GT(stripe.records, 2u);
  ASSERT_EQ(stripe.begin + stripe.length - stripe.columns_at,
            stripe.records * tle::kColumnRecordBytes);
  std::size_t designator_block = stripe.columns_at;
  for (std::size_t c = 0; c < tle::kDesignatorColumn; ++c) {
    designator_block += stripe.records * tle::kColumnWidths[c];
  }
  const auto expect_rejected = [&](std::string bytes, const char* what) {
    cdsnap::reseal_section(bytes, 0);
    for (const int threads : {1, 4}) {
      EXPECT_FALSE(io::decode_snapshot(bytes, diag::ParsePolicy::kStrict, threads)
                       .has_value())
          << what << " at threads=" << threads;
    }
  };
  {
    std::string bytes = good;
    const auto table = cdsnap::read_le<std::uint32_t>(bytes, stripe.designators_at);
    cdsnap::write_le<std::uint32_t>(bytes, designator_block + 4, table);
    expect_rejected(bytes, "a designator index past the stripe's table");
  }
  {
    std::string bytes = good;  // the epoch block comes first
    const auto first = cdsnap::read_le<double>(bytes, stripe.columns_at + 8);
    const auto second = cdsnap::read_le<double>(bytes, stripe.columns_at + 16);
    cdsnap::write_le(bytes, stripe.columns_at + 8, second);
    cdsnap::write_le(bytes, stripe.columns_at + 16, first);
    expect_rejected(bytes, "epochs out of order");
  }
  {
    std::string bytes = good;
    cdsnap::write_le<std::uint64_t>(bytes, stripe.begin + 8 + 4,
                            stripe.length / tle::kColumnRecordBytes + 1);
    expect_rejected(bytes, "a record count past the section");
  }
  {
    std::string bytes = good;
    cdsnap::write_le<std::uint64_t>(bytes, stripe.begin, stripe.length);
    expect_rejected(bytes, "a satellite count past the section");
  }
  // Unchanged but resealed, the stripe still decodes: the checks above are
  // what rejected each file.
  std::string resealed = good;
  cdsnap::reseal_section(resealed, 0);
  EXPECT_TRUE(io::decode_snapshot(resealed, diag::ParsePolicy::kStrict, 1).has_value());
}

TEST(ParallelDifferentialCatalogColumns, RoundRobinAddEqualsTheTextParse) {
  // add() one record at a time in satellite round-robin (new satellites in
  // descending order, epochs out of order, duplicates) moves satellites and
  // lays the columns out again many times; add_all() and the text parse at
  // any thread count lay them out once.  All give the same catalog.  The
  // records are the text's, so the parse reads back every bit.
  std::vector<tle::Tle> records;
  const auto add_record = [&](int id, int k) {
    const tle::TleLines lines = tle::format_tle(column_record(id, k));
    records.push_back(tle::parse_tle(lines.line1, lines.line2));
  };
  for (int k = 0; k < 120; ++k) {
    for (int s = 0; s < 50; ++s) {
      const int id = 40050 - s;
      const int records_of = 20 + s * 3;
      if (k >= records_of) continue;
      // Out of epoch order, repeating epochs when 7 divides records_of.
      add_record(id, (k * 7) % records_of);
      if (k % 9 == 0) add_record(id, (k * 7) % records_of);  // a duplicate
    }
  }
  tle::TleCatalog one_by_one;
  std::size_t added = 0;
  std::string text;
  for (const tle::Tle& record : records) {
    added += one_by_one.add(record) ? 1 : 0;
    text += text_of(record);
  }
  tle::TleCatalog all;
  EXPECT_EQ(all.add_all(records), added);
  EXPECT_TRUE(CatalogsEqual(all, one_by_one));
  for (const int threads : {1, 2, 3, 4, 8}) {
    tle::TleCatalog parsed;
    EXPECT_EQ(parsed.add_from_text(
                  text, tle::IngestOptions{nullptr, threads, "", nullptr, 1, 0}),
              added);
    EXPECT_TRUE(CatalogsEqual(parsed, one_by_one)) << "threads=" << threads;
  }
  // A second text pass over the same records adds nothing and moves no
  // record.
  for (const int threads : {1, 4}) {
    tle::TleCatalog twice = one_by_one;
    const auto placed = column_addresses(twice);
    EXPECT_EQ(twice.add_from_text(
                  text, tle::IngestOptions{nullptr, threads, "", nullptr, 1, 0}),
              0u);
    EXPECT_EQ(column_addresses(twice), placed) << "threads=" << threads;
    EXPECT_TRUE(CatalogsEqual(twice, one_by_one));
  }
}

// ---- the staged text parse --------------------------------------------------
//
// add_from_text pairs and parses each shard's lines straight into its rows
// of one staging block, a serial stitch renumbers lines and parses the
// records whose lines straddle a shard edge, and the commit lays the staged
// rows into the columns.  At every shard count and thread count the catalog,
// the tolerant quality report and the first strict error must be the
// one-shard parse's.

/// A column_record whose designator names its satellite, so the designator
/// table grows as new satellites appear in the text.  It is read back from
/// its text, so a parse of that text gives every bit of it.
tle::Tle staged_record(int catalog_number, int k) {
  tle::Tle record = column_record(catalog_number, k);
  record.international_designator =
      "D" + std::to_string(catalog_number) + (k % 2 == 0 ? "A" : "B");
  const tle::TleLines lines = tle::format_tle(record);
  return tle::parse_tle(lines.line1, lines.line2);
}

/// One parse of `text` onto copies of `base`: the catalog, count and report
/// under the tolerant policy, the first error and the catalog it leaves
/// under the strict one.
struct StagedOutcome {
  tle::TleCatalog tolerant;
  std::size_t added = 0;
  std::string quality;
  tle::TleCatalog strict;
  std::string error;
};

StagedOutcome staged_parse(const std::string& text, const tle::TleCatalog& base,
                           std::size_t first_line, int shards, int threads) {
  StagedOutcome out{base, 0, {}, base, {}};
  diag::ParseLog tolerant(diag::ParsePolicy::kTolerant);
  tle::IngestOptions options{&tolerant, threads, "staged.tle", nullptr,
                             first_line, shards};
  out.added = out.tolerant.add_from_text(text, options);
  out.quality = tolerant.report().to_json();
  diag::ParseLog strict(diag::ParsePolicy::kStrict);
  options.log = &strict;
  try {
    out.strict.add_from_text(text, options);
  } catch (const ParseError& error) {
    out.error = error.what();
  }
  return out;
}

/// Parses `text` at 1-8 shards and 1, 4 and 8 threads and expects each
/// outcome to equal the one-shard serial parse's, which it returns.
StagedOutcome expect_every_geometry_matches(const std::string& text,
                                            const tle::TleCatalog& base = {},
                                            std::size_t first_line = 1) {
  StagedOutcome reference = staged_parse(text, base, first_line, 1, 1);
  for (const int threads : {1, 4, 8}) {
    for (int shards = 1; shards <= 8; ++shards) {
      const StagedOutcome got = staged_parse(text, base, first_line, shards, threads);
      const std::string label =
          "shards=" + std::to_string(shards) + " threads=" + std::to_string(threads);
      EXPECT_TRUE(CatalogsEqual(got.tolerant, reference.tolerant)) << label;
      EXPECT_EQ(got.tolerant.designator_count(), reference.tolerant.designator_count())
          << label;
      EXPECT_EQ(got.added, reference.added) << label;
      EXPECT_EQ(got.quality, reference.quality) << label;
      EXPECT_EQ(got.error, reference.error) << label;
      EXPECT_TRUE(CatalogsEqual(got.strict, reference.strict)) << label;
      EXPECT_EQ(got.strict.designator_count(), reference.strict.designator_count())
          << label;
    }
  }
  return reference;
}

/// The byte where shard `i` of `shards` starts: the even split advanced
/// past the next newline, as add_from_text cuts the text.
std::size_t shard_start(const std::string& text, int shards, int i) {
  const std::size_t newline =
      text.find('\n', text.size() * static_cast<std::size_t>(i) /
                          static_cast<std::size_t>(shards));
  return newline == std::string::npos ? text.size() : newline + 1;
}

/// True when a shard of `shards` holds nothing but line ends.
bool has_blank_shard(const std::string& text, int shards) {
  for (int i = 1; i < shards; ++i) {
    const std::size_t end =
        i + 1 < shards ? shard_start(text, shards, i + 1) : text.size();
    const std::size_t start = shard_start(text, shards, i);
    if (start < end && text.find_first_not_of("\r\n", start) >= end) return true;
  }
  return false;
}

std::size_t line_count(const std::string& text) {
  return static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
}

TEST(ParallelDifferentialStagedParse, StrictThrowInALaterShardCommitsTheRecordsBeforeIt) {
  // Satellite after satellite, so designators keep appearing to the end of
  // the text.  A checksum flips three quarters of the way in: a strict
  // parse throws there, in a later shard at every shard count above one,
  // and leaves exactly what add() of the records before it gives,
  // designator table included.
  std::vector<tle::Tle> records;
  for (int s = 0; s < 40; ++s) {
    for (int k = 0; k < 6; ++k) records.push_back(staged_record(50001 + s, k));
  }
  const std::size_t bad = records.size() * 3 / 4;
  std::string text;
  for (std::size_t i = 0; i < records.size(); ++i) {
    std::string record = text_of(records[i]);
    if (i == bad) record[68] = record[68] == '0' ? '1' : '0';
    text += record;
  }
  ASSERT_GT(2 * bad * tle::kTleRecordBytes, text.size());

  const StagedOutcome reference = expect_every_geometry_matches(text);
  tle::TleCatalog before;
  for (std::size_t i = 0; i < bad; ++i) ASSERT_TRUE(before.add(records[i]));
  EXPECT_TRUE(CatalogsEqual(reference.strict, before));
  EXPECT_EQ(reference.strict.designator_count(), before.designator_count());
  EXPECT_LT(before.designator_count(), reference.tolerant.designator_count());
  EXPECT_NE(reference.error.find("staged.tle:" + std::to_string(2 * bad + 1) +
                                 ": [tle/checksum]"),
            std::string::npos)
      << reference.error;
  EXPECT_EQ(reference.added, records.size() - 1);
}

TEST(ParallelDifferentialStagedParse, BlankShardsBetweenALine1AndItsLine2) {
  // A line 1, then blank lines (some CRLF) spanning several shards, then
  // its line 2: the stitch carries the line 1 across the blank shards and
  // parses the record into the rows of the shard holding it.
  std::string text;
  for (int k = 0; k < 12; ++k) text += text_of(staged_record(51001 + k % 3, k));
  const tle::TleLines split = tle::format_tle(staged_record(51004, 0));
  text += split.line1 + "\n";
  for (int i = 0; i < 8000; ++i) text += i % 5 == 0 ? "\r\n" : "\n";
  text += split.line2 + "\n";
  for (int k = 12; k < 24; ++k) text += text_of(staged_record(51001 + k % 3, k));
  ASSERT_TRUE(has_blank_shard(text, 4));

  const StagedOutcome reference = expect_every_geometry_matches(text);
  EXPECT_EQ(reference.added, 25u);
  EXPECT_EQ(reference.tolerant.history(51004).size(), 1u);
  EXPECT_TRUE(reference.error.empty()) << reference.error;
}

TEST(ParallelDifferentialStagedParse, MalformedLine2OpeningAShardAfterACarriedLine1) {
  // A line 2 one column too long opens the third of four shards, so the
  // line 1 before it is carried in from the second: the stitch rejects the
  // record at the malformed line, as one serial scan does.
  std::string text;
  std::size_t malformed = std::string::npos;
  for (int records = 40; records < 60 && malformed == std::string::npos; ++records) {
    std::string candidate;
    for (int k = 0; k < records; ++k) {
      candidate += text_of(staged_record(52001 + k % 4, k));
    }
    const std::size_t at = shard_start(candidate, 4, 2);
    if (candidate.compare(at, 2, "2 ") != 0) continue;
    candidate.insert(at + 68, "7");
    if (shard_start(candidate, 4, 2) != at) continue;
    text = candidate;
    malformed = at;
  }
  ASSERT_NE(malformed, std::string::npos);
  ASSERT_EQ(text.compare(malformed - tle::kTleRecordBytes / 2, 2, "1 "), 0);

  const StagedOutcome reference = expect_every_geometry_matches(text);
  const std::string line = std::to_string(
      line_count(text.substr(0, malformed)) + 1);
  EXPECT_NE(reference.quality.find("malformed TLE line 2 (wrong length)"),
            std::string::npos);
  EXPECT_NE(reference.error.find("staged.tle:" + line + ": [tle/syntax]"),
            std::string::npos)
      << reference.error;
}

TEST(ParallelDifferentialStagedParse, DanglingLine1FollowedByBlankShards) {
  // The last record's line 1 with no line 2, then shards of blank lines:
  // the stitch carries it to the end and rejects it there, after every
  // record before it is committed.
  std::string text;
  for (int k = 0; k < 16; ++k) text += text_of(staged_record(53001 + k % 5, k));
  const tle::TleLines dangling = tle::format_tle(staged_record(53006, 0));
  text += dangling.line1 + "\n";
  text += std::string(3000, '\n');
  ASSERT_TRUE(has_blank_shard(text, 4));

  const StagedOutcome reference = expect_every_geometry_matches(text);
  EXPECT_EQ(reference.added, 16u);
  EXPECT_EQ(reference.strict.record_count(), 16u);
  EXPECT_NE(reference.error.find("staged.tle:33: [tle/structure] dangling TLE "
                                 "line 1 at end of input"),
            std::string::npos)
      << reference.error;
}

TEST(ParallelDifferentialStagedParse, OneSatellitesDisorderAcrossShardsRelaysOutFromStagedRows) {
  // One satellite's records out of epoch order and repeated, spread over
  // the whole text between in-order satellites: its history is merged from
  // staged rows one record at a time, the others land as whole runs.  The
  // result is add() in file order.
  std::vector<tle::Tle> records;
  for (int k = 0; k < 90; ++k) {
    records.push_back(staged_record(54001 + k % 3, k / 3));
    if (k % 4 == 0) {
      const int scrambled = (k * 37) % 61;
      records.push_back(staged_record(54009, scrambled));
      if (k % 12 == 0) records.push_back(staged_record(54009, scrambled));
    }
  }
  tle::TleCatalog one_by_one;
  std::string text;
  for (const tle::Tle& record : records) {
    static_cast<void>(one_by_one.add(record));
    text += text_of(record);
  }

  const StagedOutcome reference = expect_every_geometry_matches(text);
  EXPECT_TRUE(CatalogsEqual(reference.tolerant, one_by_one));
  EXPECT_EQ(reference.tolerant.designator_count(), one_by_one.designator_count());
  EXPECT_LT(reference.added, records.size());
}

TEST(ParallelDifferentialStagedParse, TailParseIntoADecodedCatalogMergesInPlace) {
  // An append run parses only the tail, numbered from the line after the
  // base, into the catalog a snapshot decoded; each satellite's new record
  // lands in its spare rows, and a bad record in the tail is reported at
  // its line in the whole file.
  std::string base;
  for (int s = 0; s < 30; ++s) {
    for (int k = 0; k < 1 + s % 7; ++k) base += text_of(staged_record(55001 + s, k));
  }
  std::string tail;
  for (int s = 0; s < 30; ++s) {
    std::string record = text_of(staged_record(55001 + s, 1 + s % 7));
    if (s == 21) record[68] = record[68] == '0' ? '1' : '0';
    tail += record;
  }
  tle::TleCatalog parsed;
  parsed.add_from_text(base);
  std::optional<io::SnapshotData> decoded =
      io::decode_snapshot(snapshot_bytes_of(parsed, 1), diag::ParsePolicy::kStrict, 1);
  ASSERT_TRUE(decoded.has_value());

  const std::size_t first_line = line_count(base) + 1;
  const StagedOutcome reference =
      expect_every_geometry_matches(tail, decoded->catalog, first_line);
  const StagedOutcome whole = staged_parse(base + tail, {}, 1, 1, 1);
  EXPECT_TRUE(CatalogsEqual(reference.tolerant, whole.tolerant));
  EXPECT_TRUE(CatalogsEqual(reference.strict, whole.strict));
  EXPECT_EQ(reference.error, whole.error);
  EXPECT_NE(reference.error.find("staged.tle:" +
                                 std::to_string(first_line + 2 * 21) + ":"),
            std::string::npos)
      << reference.error;

  // In place: no record of the decoded catalog moves.
  std::map<int, const unsigned char*> epochs;
  for (const int id : decoded->catalog.satellites()) {
    epochs[id] = decoded->catalog.history(id).column_bytes(0).data();
  }
  diag::ParseLog log(diag::ParsePolicy::kTolerant);
  EXPECT_EQ(decoded->catalog.add_from_text(
                tail, tle::IngestOptions{&log, 4, "staged.tle", nullptr,
                                         first_line, 8}),
            29u);
  for (const auto& [id, data] : epochs) {
    EXPECT_EQ(decoded->catalog.history(id).column_bytes(0).data(), data)
        << "satellite " << id << " moved";
  }
}

TEST(ParallelDifferentialSimulation, RunIsThreadCountInvariant) {
  for (const auto& [name, config] : simulation_scenarios::small()) {
    const simulation::ConstellationSimulator simulator(config);
    const simulation::SimulationResult serial = simulator.run(1);
    const std::string serial_text = serial.catalog.to_text(1);
    ASSERT_FALSE(serial_text.empty()) << name;
    for (const int threads : {2, 3, 4, 8}) {
      SCOPED_TRACE(name + " at " + std::to_string(threads) + " threads");
      const simulation::SimulationResult parallel = simulator.run(threads);
      EXPECT_EQ(parallel.catalog.to_text(1), serial_text);
      ASSERT_EQ(parallel.failures.size(), serial.failures.size());
      for (std::size_t i = 0; i < serial.failures.size(); ++i) {
        EXPECT_EQ(parallel.failures[i].catalog_number,
                  serial.failures[i].catalog_number) << "failure " << i;
        EXPECT_TRUE(bits_equal(parallel.failures[i].jd, serial.failures[i].jd))
            << "failure " << i;
        EXPECT_EQ(parallel.failures[i].kind, serial.failures[i].kind)
            << "failure " << i;
      }
      EXPECT_EQ(parallel.launched, serial.launched);
      EXPECT_EQ(parallel.reentered, serial.reentered);
      EXPECT_EQ(parallel.tracked_at_end, serial.tracked_at_end);
      ASSERT_EQ(parallel.truth.size(), serial.truth.size());
      for (const auto& [number, samples] : serial.truth) {
        const auto found = parallel.truth.find(number);
        ASSERT_NE(found, parallel.truth.end()) << number;
        ASSERT_EQ(found->second.size(), samples.size()) << number;
        for (std::size_t i = 0; i < samples.size(); ++i) {
          const auto& a = found->second[i];
          const auto& b = samples[i];
          EXPECT_TRUE(bits_equal(a.jd, b.jd) &&
                      bits_equal(a.altitude_km, b.altitude_km) &&
                      a.mode == b.mode &&
                      bits_equal(a.density_ratio, b.density_ratio))
              << number << " sample " << i;
        }
      }
    }
  }
}

// ---- the cleaned tracks, pinned ----------------------------------------------

/// FNV-1a over every cleaned track: its catalog number, the epoch, altitude
/// and B* bits of each sample, and the bits of its median altitude.
std::uint64_t clean_track_digest(std::span<const SatelliteTrack> tracks) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  const auto mix = [&hash](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xffu;
      hash *= 0x100000001b3ull;
    }
  };
  for (const SatelliteTrack& track : tracks) {
    mix(static_cast<std::uint64_t>(track.catalog_number()));
    for (const auto& sample : track.samples()) {
      mix(std::bit_cast<std::uint64_t>(sample.epoch_jd));
      mix(std::bit_cast<std::uint64_t>(sample.altitude_km));
      mix(std::bit_cast<std::uint64_t>(sample.bstar));
    }
    mix(std::bit_cast<std::uint64_t>(track.median_altitude_km()));
  }
  return hash;
}

// The outlier bound, the orbit-raising cut and the median taken after it
// are pinned by digests of each small scenario's cleaned tracks, and every
// thread count must reproduce them.
TEST(CleanTrackDigestTest, PinnedAtEveryThreadCount) {
  const std::map<std::string, std::uint64_t> expected = {
      {"paper_window", 0x8d0bb70b2ffffac7ull},
      {"figure3", 0x11684bcf7452af7bull},
      {"feb2022", 0xdf6ddb6d149c0521ull},
      {"may2024", 0xaf4b3ea2fcc36f66ull}};
  for (const auto& [name, config] : simulation_scenarios::small()) {
    const tle::TleCatalog catalog =
        simulation::ConstellationSimulator(config).run(0).catalog;
    for (const int threads : {1, 2, 3, 4, 8}) {
      PipelineConfig pipeline_config;
      pipeline_config.num_threads = threads;
      const CosmicDance pipeline(*config.dst, catalog, pipeline_config);
      ASSERT_FALSE(pipeline.tracks().empty()) << name;
      const std::uint64_t digest = clean_track_digest(pipeline.tracks());
      EXPECT_EQ(digest, expected.at(name))
          << name << " at " << threads << " threads: 0x" << std::hex << digest;
    }
  }
}

// ---- exec-layer stress tests ----------------------------------------------

/// Deterministic per-index work whose cost varies wildly between indices:
/// a scheduling-order bug (a worker writing a neighbour's slot, a skipped or
/// doubled chunk) shows up as a value mismatch against the serial run.
std::uint64_t uneven_work(std::size_t i) {
  // Spin length 0..~1000, pseudo-random per index.
  const std::uint64_t spin = (i * 2654435761u) % 1009u;
  std::uint64_t h = i + 0x9e3779b97f4a7c15ull;
  for (std::uint64_t k = 0; k < spin; ++k) {
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ull;
  }
  return h;
}

TEST(ParallelForStress, UnevenTaskSizesPreserveOrdering) {
  constexpr std::size_t kCount = 20000;
  std::vector<std::uint64_t> expected(kCount);
  for (std::size_t i = 0; i < kCount; ++i) expected[i] = uneven_work(i);

  for (const int threads : {2, 3, 8, 0}) {
    for (int repeat = 0; repeat < 3; ++repeat) {
      const auto actual = exec::ordered_map<std::uint64_t>(
          kCount, threads, [](std::size_t i) { return uneven_work(i); });
      ASSERT_EQ(actual, expected) << "threads=" << threads
                                  << " repeat=" << repeat;
    }
  }
}

TEST(ParallelForStress, EveryIndexVisitedExactlyOnce) {
  constexpr std::size_t kCount = 50000;
  for (const int threads : {2, 8, 0}) {
    std::vector<std::atomic<int>> visits(kCount);
    exec::parallel_for(kCount, threads,
                       [&](std::size_t begin, std::size_t end) {
                         for (std::size_t i = begin; i < end; ++i) {
                           visits[i].fetch_add(1);
                         }
                       });
    for (std::size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(visits[i].load(), 1) << "index " << i << " threads=" << threads;
    }
  }
}

TEST(ParallelForStress, ManySmallSectionsBackToBack) {
  // Hammer the shared pool with rapid-fire small sections (the pipeline's
  // actual usage pattern): stale state from a previous section must never
  // leak into the next.
  for (int round = 0; round < 200; ++round) {
    const std::size_t count = 1 + static_cast<std::size_t>(round % 37);
    const auto out = exec::ordered_map<std::size_t>(
        count, 4, [round](std::size_t i) { return i * 31 + round; });
    ASSERT_EQ(out.size(), count);
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(out[i], i * 31 + static_cast<std::size_t>(round));
    }
  }
}

TEST(ParallelForStress, NestedSectionsDoNotDeadlockOrReorder) {
  const auto outer = exec::ordered_map<std::uint64_t>(
      64, 4, [](std::size_t i) {
        const auto inner = exec::ordered_map<std::uint64_t>(
            32, 4, [i](std::size_t j) { return uneven_work(i * 32 + j); });
        std::uint64_t sum = 0;
        for (const std::uint64_t v : inner) sum += v;
        return sum;
      });
  for (std::size_t i = 0; i < 64; ++i) {
    std::uint64_t sum = 0;
    for (std::size_t j = 0; j < 32; ++j) sum += uneven_work(i * 32 + j);
    ASSERT_EQ(outer[i], sum) << "outer index " << i;
  }
}

TEST(ParallelForStress, BodyExceptionPropagates) {
  EXPECT_THROW(
      exec::parallel_for(1000, 4,
                         [](std::size_t begin, std::size_t) {
                           if (begin >= 500) throw std::runtime_error("boom");
                         }),
      std::runtime_error);
  // The pool must stay usable afterwards.
  const auto out =
      exec::ordered_map<std::size_t>(100, 4, [](std::size_t i) { return i; });
  ASSERT_EQ(out.size(), 100u);
  EXPECT_EQ(out[99], 99u);
}

TEST(ParallelForStress, SerialKnobNeverTouchesThePool) {
  // num_threads == 1 must run inline on the calling thread (the "exact
  // serial path" contract): observable as the body seeing one single
  // contiguous chunk.
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  exec::parallel_for(1000, 1, [&](std::size_t begin, std::size_t end) {
    // cdlint: allow(shared-mutable-capture) num_threads==1 is the exact serial path: one worker by contract
    chunks.emplace_back(begin, end);  // unsynchronised on purpose
  });
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].first, 0u);
  EXPECT_EQ(chunks[0].second, 1000u);
}

TEST(ThreadPoolTest, ResolveThreadCount) {
  EXPECT_GE(exec::resolve_thread_count(0), 1u);
  EXPECT_EQ(exec::resolve_thread_count(1), 1u);
  EXPECT_EQ(exec::resolve_thread_count(6), 6u);
}

TEST(ThreadPoolTest, DrainsAllSubmittedTasks) {
  constexpr int kTasks = 5000;
  std::atomic<int> done{0};
  std::atomic<int> remaining{kTasks};
  std::mutex m;
  std::condition_variable cv;
  // Declared after everything its tasks touch, so it is destroyed first:
  // its destructor joins the worker that may still be inside notify_one
  // after the wait below has already seen `remaining` reach zero.
  exec::ThreadPool pool(4);
  for (int i = 0; i < kTasks; ++i) {
    pool.submit([&] {
      done.fetch_add(1);
      if (remaining.fetch_sub(1) == 1) {
        const std::lock_guard<std::mutex> lock(m);
        cv.notify_one();
      }
    });
  }
  std::unique_lock<std::mutex> lock(m);
  cv.wait(lock, [&] { return remaining.load() == 0; });
  EXPECT_EQ(done.load(), kTasks);
}

}  // namespace
}  // namespace cosmicdance
