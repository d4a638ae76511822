#include "stats/descriptive.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace cosmicdance::stats {
namespace {

/// A copy of the sample for std::sort or std::nth_element to reorder.  A
/// NaN orders against nothing, which is undefined behaviour for both, so
/// it is refused here.
std::vector<double> ordered_copy(std::span<const double> sample) {
  std::vector<double> copy(sample.begin(), sample.end());
  if (std::any_of(copy.begin(), copy.end(),
                  [](double x) { return std::isnan(x); })) {
    throw ValidationError("statistics of a sample holding NaN");
  }
  return copy;
}

std::vector<double> sorted_copy(std::span<const double> sample) {
  std::vector<double> sorted = ordered_copy(sample);
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

}  // namespace

double percentile_of_sorted(std::span<const double> sorted, double p) {
  if (sorted.empty()) throw ValidationError("percentile of empty sample");
  if (!(p >= 0.0 && p <= 100.0)) {  // a NaN p too
    throw ValidationError("percentile p outside [0,100]: " + std::to_string(p));
  }
  return interpolate_sorted(sorted, p / 100.0);
}

double interpolate_sorted(std::span<const double> sorted,
                          double fraction) noexcept {
  if (sorted.size() == 1) return sorted.front();
  const double rank = fraction * static_cast<double>(sorted.size() - 1);
  const auto lower = static_cast<std::size_t>(std::floor(rank));
  const auto upper = static_cast<std::size_t>(std::ceil(rank));
  const double weight = rank - static_cast<double>(lower);
  return sorted[lower] * (1.0 - weight) + sorted[upper] * weight;
}

double percentile(std::span<const double> sample, double p) {
  std::vector<double> values = ordered_copy(sample);
  // interpolate_sorted reads only the two ranks closest to
  // p / 100 * (n - 1): put the lower one where a sort would, and the least
  // value behind it next to it.  Out-of-range arguments go straight to
  // percentile_of_sorted, which throws.
  if (!values.empty() && p >= 0.0 && p <= 100.0) {
    const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
    const auto lower =
        values.begin() + static_cast<std::ptrdiff_t>(std::floor(rank));
    std::nth_element(values.begin(), lower, values.end());
    if (lower + 1 != values.end()) {
      std::iter_swap(lower + 1, std::min_element(lower + 1, values.end()));
    }
  }
  return percentile_of_sorted(values, p);
}

std::vector<double> percentiles(std::span<const double> sample,
                                std::span<const double> ps) {
  const std::vector<double> sorted = sorted_copy(sample);
  std::vector<double> out;
  out.reserve(ps.size());
  for (const double p : ps) out.push_back(percentile_of_sorted(sorted, p));
  return out;
}

double median(std::span<const double> sample) { return percentile(sample, 50.0); }

double mean(std::span<const double> sample) {
  if (sample.empty()) throw ValidationError("mean of empty sample");
  double sum = 0.0;
  for (const double x : sample) sum += x;
  return sum / static_cast<double>(sample.size());
}

double variance(std::span<const double> sample) {
  if (sample.empty()) throw ValidationError("variance of empty sample");
  if (sample.size() == 1) return 0.0;
  const double m = mean(sample);
  double accum = 0.0;
  for (const double x : sample) accum += (x - m) * (x - m);
  return accum / static_cast<double>(sample.size() - 1);
}

double stddev(std::span<const double> sample) { return std::sqrt(variance(sample)); }

double min(std::span<const double> sample) {
  if (sample.empty()) throw ValidationError("min of empty sample");
  return *std::min_element(sample.begin(), sample.end());
}

double max(std::span<const double> sample) {
  if (sample.empty()) throw ValidationError("max of empty sample");
  return *std::max_element(sample.begin(), sample.end());
}

Summary summarize(std::span<const double> sample) {
  const std::vector<double> sorted = sorted_copy(sample);
  Summary s;
  s.count = sorted.size();
  s.mean = mean(sorted);
  s.stddev = stddev(sorted);
  s.min = sorted.front();
  s.p25 = percentile_of_sorted(sorted, 25.0);
  s.median = percentile_of_sorted(sorted, 50.0);
  s.p75 = percentile_of_sorted(sorted, 75.0);
  s.p95 = percentile_of_sorted(sorted, 95.0);
  s.p99 = percentile_of_sorted(sorted, 99.0);
  s.max = sorted.back();
  return s;
}

}  // namespace cosmicdance::stats
