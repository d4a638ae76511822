// Fleet-scale batch SGP4 propagation (DESIGN.md §16).
//
// BatchPropagator runs the element recovery exactly once per TLE and stores
// the resulting constants in structure-of-arrays form, split by consumer:
// a dense CommonConstants row per satellite, a dense NearSpaceConstants row
// (all-zero for simple-drag orbits), and a *compacted* DeepSpaceConstants
// table indexed per row — LEO-heavy catalogs pay nothing for the ~50-double
// deep-space block they never read.  Propagation fans the (row × epoch)
// grid out over exec::parallel_for by row; each row sweeps its epochs
// serially with a row-local ResonanceState, so outputs are bit-identical at
// any --threads value and under any epoch ordering (the memo is exact; see
// ResonanceState in sgp4.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sgp4/sgp4.hpp"
#include "tle/catalog.hpp"

namespace cosmicdance::obs {
class Metrics;
}  // namespace cosmicdance::obs

namespace cosmicdance::sgp4 {

/// One TLE the batch constructor rejected (element recovery threw); the
/// row is skipped rather than poisoning the whole batch.
struct BatchInitFailure {
  int catalog_number = 0;
  std::string message;
};

/// The (row × epoch) propagation grid, row-major.
struct BatchResult {
  std::size_t rows = 0;
  std::size_t epochs = 0;
  /// states[row * epochs + e]; zero where the matching status is not kOk.
  std::vector<orbit::StateVector> states;
  std::vector<Sgp4Status> statuses;  ///< same layout as states

  [[nodiscard]] const orbit::StateVector& state(std::size_t row,
                                                std::size_t epoch) const noexcept {
    return states[row * epochs + epoch];
  }
  [[nodiscard]] Sgp4Status status(std::size_t row,
                                  std::size_t epoch) const noexcept {
    return statuses[row * epochs + epoch];
  }
  /// Grid cells with any non-kOk status (kDecayed included).
  [[nodiscard]] std::size_t error_count() const noexcept;
};

/// Init-once / propagate-many SGP4 over a whole catalog.
class BatchPropagator {
 public:
  /// Recover constants for every TLE (one row each, input order).  TLEs
  /// whose recovery fails are recorded in init_failures() and skipped.
  [[nodiscard]] static BatchPropagator from_tles(std::span<const tle::Tle> tles);

  /// One row per satellite: the latest record of each history, in catalog
  /// (ascending NORAD number) order.
  [[nodiscard]] static BatchPropagator from_catalog(
      const tle::TleCatalog& catalog);

  [[nodiscard]] std::size_t rows() const noexcept { return common_.size(); }
  [[nodiscard]] bool empty() const noexcept { return common_.empty(); }
  [[nodiscard]] int catalog_number(std::size_t row) const noexcept {
    return common_[row].catalog_number;
  }
  [[nodiscard]] double epoch_jd(std::size_t row) const noexcept {
    return common_[row].epoch_jd;
  }
  [[nodiscard]] bool deep_space(std::size_t row) const noexcept {
    return common_[row].deep_space;
  }
  /// Rows on the SDP4 deep-space path.
  [[nodiscard]] std::size_t deep_space_rows() const noexcept {
    return deep_.size();
  }
  [[nodiscard]] const std::vector<BatchInitFailure>& init_failures()
      const noexcept {
    return failures_;
  }

  /// Propagate every row to every absolute Julian date in `epochs_jd`
  /// (visited in the given order — any order yields bit-identical output).
  /// num_threads follows the exec convention (0 = all hardware threads,
  /// 1 = serial); `metrics` (optional) records sgp4.batch_* counters and
  /// the sgp4.batch_propagate phase.
  [[nodiscard]] BatchResult propagate_jd(std::span<const double> epochs_jd,
                                         int num_threads = 0,
                                         obs::Metrics* metrics = nullptr) const;

  /// As above with a grid of offsets (minutes) relative to each row's own
  /// TLE epoch — the natural axis for verification sweeps and benchmarks.
  [[nodiscard]] BatchResult propagate_minutes(
      std::span<const double> tsince_minutes, int num_threads = 0,
      obs::Metrics* metrics = nullptr) const;

  /// Single-cell convenience mirroring Sgp4Propagator::try_propagate_minutes
  /// for cross-checking one row against the batch grid.
  [[nodiscard]] Sgp4Status try_propagate_row(std::size_t row,
                                             double tsince_minutes,
                                             orbit::StateVector& out)
      const noexcept;

 private:
  BatchPropagator() = default;

  template <typename TsinceForRow>
  [[nodiscard]] BatchResult propagate_grid(std::size_t epoch_count,
                                           const TsinceForRow& tsince,
                                           int num_threads,
                                           obs::Metrics* metrics) const;

  // Structure-of-arrays constant storage (one slot per row except deep_,
  // which is compacted and reached through deep_index_).
  std::vector<CommonConstants> common_;
  std::vector<NearSpaceConstants> near_;
  std::vector<std::int32_t> deep_index_;  ///< -1 for near-earth rows
  std::vector<DeepSpaceConstants> deep_;
  std::vector<BatchInitFailure> failures_;
};

}  // namespace cosmicdance::sgp4
