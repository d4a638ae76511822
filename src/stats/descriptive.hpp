// Descriptive statistics used throughout the measurement pipeline.
//
// The paper reports medians and 95th/99th percentiles everywhere; these
// helpers centralise one percentile definition (linear interpolation
// between closest ranks, the same convention as numpy's default) so every
// figure uses identical semantics.
#pragma once

#include <span>
#include <vector>

namespace cosmicdance::stats {

/// p-th percentile (p in [0, 100]) of a sample, linear interpolation between
/// closest ranks.  Selects the two ranks in a copy instead of sorting it:
/// the same bits as percentile_of_sorted() of a sorted copy whenever equal
/// values have equal bits (only -0.0 and 0.0 do not).  Throws
/// ValidationError on an empty sample, a NaN in it, or p outside [0, 100]
/// (a NaN p included).
[[nodiscard]] double percentile(std::span<const double> sample, double p);

/// percentile() of a sample that is already sorted ascending: no copy, no
/// sort, the same bits.  For callers that sort once and ask many times.
[[nodiscard]] double percentile_of_sorted(std::span<const double> sorted,
                                          double p);

/// The interpolation behind percentile_of_sorted and Ecdf::quantile: the
/// value at rank `fraction * (n - 1)` of a sorted, non-empty sample,
/// linear between the two closest ranks.  `fraction` must lie in [0, 1];
/// the callers check their own arguments.
[[nodiscard]] double interpolate_sorted(std::span<const double> sorted,
                                        double fraction) noexcept;

/// Convenience: several percentiles at once over one shared sort.  Throws
/// ValidationError as percentile() does.
[[nodiscard]] std::vector<double> percentiles(std::span<const double> sample,
                                              std::span<const double> ps);

/// Median (50th percentile), by percentile()'s selection.
[[nodiscard]] double median(std::span<const double> sample);

/// Arithmetic mean.  Throws ValidationError on an empty sample.
[[nodiscard]] double mean(std::span<const double> sample);

/// Unbiased sample variance (n-1 denominator); 0 for single-element samples.
[[nodiscard]] double variance(std::span<const double> sample);

/// Square root of variance().
[[nodiscard]] double stddev(std::span<const double> sample);

/// Smallest element.  Throws ValidationError on an empty sample.
[[nodiscard]] double min(std::span<const double> sample);

/// Largest element.  Throws ValidationError on an empty sample.
[[nodiscard]] double max(std::span<const double> sample);

/// One-line summary bundle of a sample, computed with a single sort.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

/// Summary of a non-empty sample.  Throws ValidationError when empty or
/// holding a NaN.
[[nodiscard]] Summary summarize(std::span<const double> sample);

}  // namespace cosmicdance::stats
