// Empirical CDF — the figure type the paper uses for Figs 1, 5, 6 and 10.
#pragma once

#include <span>
#include <vector>

namespace cosmicdance::stats {

/// Empirical cumulative distribution function over a fixed sample.
///
/// Built once from the sample (sorted copy); evaluation and quantiles are
/// then O(log n).  Invariant: the stored sample is sorted and non-empty.
class Ecdf {
 public:
  /// Throws ValidationError when the sample is empty or holds a NaN.
  explicit Ecdf(std::span<const double> sample);

  /// Fraction of samples <= x, in [0, 1].
  [[nodiscard]] double operator()(double x) const noexcept;

  /// Value below which fraction q of the mass lies (q in [0,1]); clamps to
  /// the sample range.  Throws ValidationError for q outside [0,1] or NaN.
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] std::size_t size() const noexcept { return sorted_.size(); }
  [[nodiscard]] double min() const noexcept { return sorted_.front(); }
  [[nodiscard]] double max() const noexcept { return sorted_.back(); }

  /// (x, F(x)) step points, thinned to at most `max_points` for printing.
  [[nodiscard]] std::vector<std::pair<double, double>> points(
      std::size_t max_points = 200) const;

 private:
  std::vector<double> sorted_;
};

/// Ecdf(sorted).points(max_points) of a sample that is already sorted
/// ascending, without the copy and the sort: every stride-th order
/// statistic, then the maximum at F = 1.  Empty for an empty sample.
[[nodiscard]] std::vector<std::pair<double, double>> ecdf_points_of_sorted(
    std::span<const double> sorted, std::size_t max_points);

/// Ecdf(sample).points(max_points) without sorting the sample: only the
/// order statistics the points print (every stride-th one and the
/// maximum), found by histogram selection over order-preserving 64-bit
/// keys.  The histograms count fixed chunks of the sample over
/// `num_threads` workers (the exec convention: 0 = all hardware threads,
/// 1 = serial).  An order statistic does not depend on how it is found, so
/// the points are identical at every thread count, and equal Ecdf's bit
/// for bit whenever equal values have equal bits.  The keys rank every
/// -0.0 below every 0.0, where std::sort leaves a mix of the two in any
/// order; such points still compare equal to Ecdf's.  See DESIGN.md §9.
/// Throws ValidationError when the sample is empty or holds a NaN.
[[nodiscard]] std::vector<std::pair<double, double>> ecdf_points(
    std::span<const double> sample, std::size_t max_points, int num_threads);

}  // namespace cosmicdance::stats
