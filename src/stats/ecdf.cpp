#include "stats/ecdf.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"
#include "exec/parallel_for.hpp"
#include "stats/descriptive.hpp"

namespace cosmicdance::stats {
namespace {

/// A chunk is never split below this many samples, so a sample smaller
/// than twice this is one chunk: a plain std::sort.
constexpr std::size_t kMinChunkSamples = std::size_t{1} << 18;
/// At most 16 chunks, so the merge tree is at most 4 levels deep.
constexpr std::size_t kMaxChunks = 16;

/// Sort chunks for a sample of `n`: a power of two and a function of `n`
/// alone, never of the thread count.
std::size_t chunk_count(std::size_t n) {
  std::size_t chunks = 1;
  while (chunks < kMaxChunks && n / (chunks * 2) >= kMinChunkSamples) {
    chunks *= 2;
  }
  return chunks;
}

}  // namespace

Ecdf::Ecdf(std::span<const double> sample, int num_threads)
    : sorted_(sample.begin(), sample.end()) {
  if (sorted_.empty()) throw ValidationError("ECDF of empty sample");
  const std::size_t n = sorted_.size();
  const std::size_t chunks = chunk_count(n);
  if (chunks == 1) {
    std::sort(sorted_.begin(), sorted_.end());
    return;
  }
  const auto bound = [&](std::size_t chunk) { return chunk * n / chunks; };
  double* src = sorted_.data();
  exec::parallel_for(chunks, num_threads,
                     [&](std::size_t begin, std::size_t end) {
                       for (std::size_t c = begin; c < end; ++c) {
                         std::sort(src + bound(c), src + bound(c + 1));
                       }
                     });
  // Merge neighbouring runs pairwise, ping-ponging between the two buffers.
  // std::merge is stable, so the tree — fixed by the chunk count — decides
  // every byte.
  std::vector<double> scratch(n);
  double* dst = scratch.data();
  for (std::size_t width = 1; width < chunks; width *= 2) {
    exec::parallel_for(chunks / (2 * width), num_threads,
                       [&](std::size_t begin, std::size_t end) {
                         for (std::size_t pair = begin; pair < end; ++pair) {
                           const std::size_t lo = bound(2 * pair * width);
                           const std::size_t mid = bound((2 * pair + 1) * width);
                           const std::size_t hi = bound((2 * pair + 2) * width);
                           std::merge(src + lo, src + mid, src + mid, src + hi,
                                      dst + lo);
                         }
                       });
    std::swap(src, dst);
  }
  if (src != sorted_.data()) sorted_.swap(scratch);
}

double Ecdf::operator()(double x) const noexcept {
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

double Ecdf::quantile(double q) const {
  if (q < 0.0 || q > 1.0) {
    throw ValidationError("ECDF quantile outside [0,1]: " + std::to_string(q));
  }
  return interpolate_sorted(sorted_, q);
}

std::vector<std::pair<double, double>> Ecdf::points(std::size_t max_points) const {
  return ecdf_points_of_sorted(sorted_, max_points);
}

std::vector<std::pair<double, double>> ecdf_points_of_sorted(
    std::span<const double> sorted, std::size_t max_points) {
  std::vector<std::pair<double, double>> pts;
  if (max_points == 0 || sorted.empty()) return pts;
  const std::size_t n = sorted.size();
  const std::size_t stride = n <= max_points ? 1 : (n + max_points - 1) / max_points;
  pts.reserve(n / stride + 2);
  for (std::size_t i = 0; i < n; i += stride) {
    pts.emplace_back(sorted[i],
                     static_cast<double>(i + 1) / static_cast<double>(n));
  }
  if (pts.back().first != sorted.back()) {
    pts.emplace_back(sorted.back(), 1.0);
  } else {
    pts.back().second = 1.0;
  }
  return pts;
}

}  // namespace cosmicdance::stats
