#include "sgp4/batch.hpp"

#include <utility>

#include "common/error.hpp"
#include "common/units.hpp"
#include "exec/parallel_for.hpp"
#include "obs/obs.hpp"

namespace cosmicdance::sgp4 {

namespace {

/// Shared empty block handed to near-earth rows so the kernel's deep-space
/// argument is always a valid reference.
const DeepSpaceConstants kNoDeepSpace{};

}  // namespace

std::size_t BatchResult::error_count() const noexcept {
  std::size_t count = 0;
  for (const Sgp4Status status : statuses) {
    if (status != Sgp4Status::kOk) ++count;
  }
  return count;
}

BatchPropagator BatchPropagator::from_tles(std::span<const tle::Tle> tles) {
  BatchPropagator batch;
  batch.common_.reserve(tles.size());
  batch.near_.reserve(tles.size());
  batch.deep_index_.reserve(tles.size());
  for (const tle::Tle& tle : tles) {
    Sgp4Constants k;
    try {
      k = init_constants(tle);
    } catch (const Error& error) {
      batch.failures_.push_back({tle.catalog_number, error.what()});
      continue;
    }
    batch.common_.push_back(k.common);
    batch.near_.push_back(k.near_space);
    if (k.common.deep_space) {
      batch.deep_index_.push_back(static_cast<std::int32_t>(batch.deep_.size()));
      batch.deep_.push_back(k.deep);
    } else {
      batch.deep_index_.push_back(-1);
    }
  }
  return batch;
}

BatchPropagator BatchPropagator::from_catalog(const tle::TleCatalog& catalog) {
  std::vector<tle::Tle> latest;
  latest.reserve(catalog.satellite_count());
  for (const int number : catalog.satellites()) {
    const auto history = catalog.history(number);
    if (!history.empty()) latest.push_back(history.back());
  }
  return from_tles(latest);
}

Sgp4Status BatchPropagator::try_propagate_row(std::size_t row,
                                              double tsince_minutes,
                                              orbit::StateVector& out)
    const noexcept {
  const std::int32_t deep = deep_index_[row];
  return propagate(common_[row], near_[row],
                   deep >= 0 ? deep_[static_cast<std::size_t>(deep)]
                             : kNoDeepSpace,
                   tsince_minutes, out);
}

template <typename TsinceForRow>
BatchResult BatchPropagator::propagate_grid(std::size_t epoch_count,
                                            const TsinceForRow& tsince,
                                            int num_threads,
                                            obs::Metrics* metrics) const {
  const obs::ScopedPhase phase(metrics, "sgp4.batch_propagate");

  BatchResult result;
  result.rows = rows();
  result.epochs = epoch_count;
  result.states.resize(result.rows * epoch_count);
  result.statuses.resize(result.rows * epoch_count, Sgp4Status::kOk);

  // Fan out by row: every (row, epoch) cell is written exactly once by the
  // worker owning that row, and each row's epoch sweep is serial with a
  // row-local resonance memo — so the grid is bit-identical at any thread
  // count (the exec ordering contract plus the exact-memo contract).
  exec::parallel_for(
      result.rows, num_threads,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t row = begin; row < end; ++row) {
          const CommonConstants& common = common_[row];
          const NearSpaceConstants& near_space = near_[row];
          const std::int32_t deep = deep_index_[row];
          const DeepSpaceConstants& deep_space =
              deep >= 0 ? deep_[static_cast<std::size_t>(deep)] : kNoDeepSpace;
          ResonanceState resonance;
          orbit::StateVector* states = &result.states[row * epoch_count];
          Sgp4Status* statuses = &result.statuses[row * epoch_count];
          for (std::size_t e = 0; e < epoch_count; ++e) {
            statuses[e] = propagate(common, near_space, deep_space,
                                    tsince(row, e), states[e], &resonance);
            if (statuses[e] != Sgp4Status::kOk) states[e] = {};
          }
        }
      },
      metrics);

  if (metrics != nullptr) {
    obs::bump(obs::counter_or_null(metrics, "sgp4.batch_rows"), result.rows);
    obs::bump(obs::counter_or_null(metrics, "sgp4.batch_positions"),
              result.states.size());
    obs::bump(obs::counter_or_null(metrics, "sgp4.batch_errors"),
              result.error_count());
  }
  return result;
}

BatchResult BatchPropagator::propagate_jd(std::span<const double> epochs_jd,
                                          int num_threads,
                                          obs::Metrics* metrics) const {
  return propagate_grid(
      epochs_jd.size(),
      [&](std::size_t row, std::size_t e) {
        return (epochs_jd[e] - common_[row].epoch_jd) * units::kMinutesPerDay;
      },
      num_threads, metrics);
}

BatchResult BatchPropagator::propagate_minutes(
    std::span<const double> tsince_minutes, int num_threads,
    obs::Metrics* metrics) const {
  return propagate_grid(
      tsince_minutes.size(),
      [&](std::size_t, std::size_t e) { return tsince_minutes[e]; },
      num_threads, metrics);
}

}  // namespace cosmicdance::sgp4
