#include "stats/ecdf.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "exec/parallel_for.hpp"
#include "stats/descriptive.hpp"

namespace cosmicdance::stats {
namespace {

/// Every stride-th order statistic is printed: the stride that keeps a
/// sample of `n` to at most `max_points` of them.
std::size_t thinning_stride(std::size_t n, std::size_t max_points) {
  return n <= max_points ? 1 : (n + max_points - 1) / max_points;
}

/// The (x, F(x)) points of a sample of `n` whose i-th order statistic is
/// `at(i)`: every stride-th one, then the maximum at F = 1.
template <typename At>
std::vector<std::pair<double, double>> thinned_points(std::size_t n,
                                                      std::size_t max_points,
                                                      const At& at) {
  std::vector<std::pair<double, double>> pts;
  if (max_points == 0 || n == 0) return pts;
  const std::size_t stride = thinning_stride(n, max_points);
  pts.reserve(n / stride + 2);
  for (std::size_t i = 0; i < n; i += stride) {
    pts.emplace_back(at(i), static_cast<double>(i + 1) / static_cast<double>(n));
  }
  const double max = at(n - 1);
  if (pts.back().first != max) {
    pts.emplace_back(max, 1.0);
  } else {
    pts.back().second = 1.0;
  }
  return pts;
}

// ---- selection ---------------------------------------------------------------

constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;

/// Unsigned keys that order as their doubles do: a negative double's bits
/// inverted, a non-negative one's with the sign bit set.  So -0.0 sits just
/// below 0.0, the infinities at the ends, and every NaN beyond them.
constexpr std::uint64_t order_key(double x) {
  const auto bits = std::bit_cast<std::uint64_t>(x);
  return (bits & kSignBit) != 0 ? ~bits : bits | kSignBit;
}

constexpr double key_value(std::uint64_t key) {
  return std::bit_cast<double>((key & kSignBit) != 0 ? key & ~kSignBit : ~key);
}

constexpr std::uint64_t kLowestKey =
    order_key(-std::numeric_limits<double>::infinity());
constexpr std::uint64_t kHighestKey =
    order_key(std::numeric_limits<double>::infinity());

/// Buckets per histogram level: 2^16 counters.
constexpr int kLevelBits = 16;
/// The sample is counted in at most kMaxCountChunks contiguous chunks of at
/// least kMinCountChunkSamples each: a function of its size alone.
constexpr std::size_t kMinCountChunkSamples = std::size_t{1} << 15;
constexpr std::size_t kMaxCountChunks = 16;

struct Chunks {
  std::span<const double> sample;
  std::size_t count = 1;

  [[nodiscard]] std::size_t begin(std::size_t chunk) const {
    return chunk * sample.size() / count;
  }
};

/// Chunk-major counts: [c * buckets + b] counts chunk c's keys in bucket
/// `bucket_of(key)`.  32 bits suffice: a chunk of a sample under 2^36
/// values (512 GB of doubles) holds fewer than 2^32.
template <typename BucketOf>
std::vector<std::uint32_t> count_chunks(const Chunks& chunks,
                                        std::size_t buckets, int num_threads,
                                        const BucketOf& bucket_of) {
  std::vector<std::uint32_t> counts(chunks.count * buckets);
  exec::parallel_for(chunks.count, num_threads,
                     [&](std::size_t first, std::size_t last) {
                       for (std::size_t c = first; c < last; ++c) {
                         std::uint32_t* row = counts.data() + c * buckets;
                         for (std::size_t i = chunks.begin(c);
                              i < chunks.begin(c + 1); ++i) {
                           ++row[bucket_of(order_key(chunks.sample[i]))];
                         }
                       }
                     });
  return counts;
}

std::vector<std::uint64_t> sum_chunks(std::span<const std::uint32_t> counts,
                                      std::size_t buckets) {
  std::vector<std::uint64_t> totals(buckets);
  for (std::size_t row = 0; row < counts.size(); row += buckets) {
    for (std::size_t b = 0; b < buckets; ++b) totals[b] += counts[row + b];
  }
  return totals;
}

/// Where a wanted rank lies at one level: its bucket, and how many sample
/// values rank below that bucket.
struct Hit {
  std::uint32_t bucket = 0;
  std::uint64_t below = 0;
};

/// The hit of each wanted rank (ascending).  `totals` lists the level's
/// buckets in key order as runs of `run` buckets; run k's values have
/// `below[k]` sample values under them, and every wanted rank lies in a run.
std::vector<Hit> locate(std::span<const std::uint64_t> totals, std::size_t run,
                        std::span<const std::uint64_t> below,
                        std::span<const std::size_t> ranks) {
  std::vector<Hit> hits(ranks.size());
  std::size_t r = 0;
  for (std::size_t k = 0; k < below.size(); ++k) {
    std::uint64_t under = below[k];
    for (std::size_t b = k * run; b < (k + 1) * run && r < ranks.size(); ++b) {
      const std::uint64_t next = under + totals[b];
      for (; r < ranks.size() && ranks[r] < next; ++r) {
        hits[r] = {static_cast<std::uint32_t>(b), under};
      }
      under = next;
    }
  }
  return hits;
}

/// The buckets some hit names, ascending, with the values below each and a
/// bucket -> position lookup that maps every other bucket one past the
/// last position (so the passes look a key up without a branch).
struct Kept {
  std::vector<std::uint32_t> buckets;
  std::vector<std::uint64_t> below;
  std::vector<std::uint32_t> position;
};

Kept keep(std::span<const Hit> hits, std::size_t bucket_count) {
  Kept kept;
  for (const Hit& hit : hits) {
    if (kept.buckets.empty() || kept.buckets.back() != hit.bucket) {
      kept.buckets.push_back(hit.bucket);
      kept.below.push_back(hit.below);
    }
  }
  const auto count = static_cast<std::uint32_t>(kept.buckets.size());
  kept.position.assign(bucket_count, count);
  for (std::uint32_t k = 0; k < count; ++k) kept.position[kept.buckets[k]] = k;
  return kept;
}

/// Put the order statistics at `at` (ascending, inside [first, last)) where
/// a full sort would: nth_element at the middle one, then each side.
void select_in_place(std::uint64_t* first, std::uint64_t* last,
                     std::span<std::uint64_t* const> at) {
  if (at.empty()) return;
  const std::size_t mid = at.size() / 2;
  std::nth_element(first, at[mid], last);
  select_in_place(first, at[mid], at.first(mid));
  select_in_place(at[mid] + 1, last, at.subspan(mid + 1));
}

/// The keys at `ranks` (ascending) of a sample whose keys span [lo, hi],
/// lo < hi.  Level 1 histograms the key span in 2^16 buckets; level 2
/// splits each bucket holding a wanted rank by its next bits, as many as
/// keep that histogram at 2^16 buckets, and counts every other key in one
/// more run of buckets that no rank reads; the keys of the level-2 buckets
/// holding a wanted rank are gathered and selected.
std::vector<std::uint64_t> select_keys(const Chunks& chunks, std::uint64_t lo,
                                       std::uint64_t hi,
                                       std::span<const std::size_t> ranks,
                                       int num_threads) {
  const int shift1 =
      std::max(0, static_cast<int>(std::bit_width(hi - lo)) - kLevelBits);
  const std::size_t buckets1 = static_cast<std::size_t>((hi - lo) >> shift1) + 1;
  const auto bucket1 = [&](std::uint64_t key) {
    return static_cast<std::uint32_t>((key - lo) >> shift1);
  };
  const std::vector<std::uint64_t> totals1 = sum_chunks(
      count_chunks(chunks, buckets1, num_threads, bucket1), buckets1);
  const std::uint64_t none_below[] = {0};
  const Kept kept1 = keep(locate(totals1, buckets1, none_below, ranks), buckets1);

  const int bits2 = std::clamp(
      kLevelBits - static_cast<int>(std::bit_width(kept1.buckets.size())), 0,
      shift1);
  const int shift2 = shift1 - bits2;
  const std::uint64_t mask2 = (std::uint64_t{1} << bits2) - 1;
  const std::size_t buckets2 = (kept1.buckets.size() + 1) << bits2;
  const auto bucket2 = [&](std::uint64_t key) {
    const std::uint64_t run = kept1.position[(key - lo) >> shift1];
    return static_cast<std::uint32_t>((run << bits2) |
                                      (((key - lo) >> shift2) & mask2));
  };
  const std::vector<std::uint32_t> counts2 =
      count_chunks(chunks, buckets2, num_threads, bucket2);
  const std::vector<std::uint64_t> totals2 = sum_chunks(counts2, buckets2);
  const std::vector<Hit> hits =
      locate(totals2, std::size_t{1} << bits2, kept1.below, ranks);
  const Kept kept2 = keep(hits, buckets2);

  // Gather the kept buckets' keys, bucket after bucket, each bucket's in
  // chunk order: chunk c writes kept bucket f from cursor[c * kept + f].
  const std::size_t kept = kept2.buckets.size();
  std::vector<std::uint64_t> start(kept + 1, 0);
  std::vector<std::uint64_t> cursor(chunks.count * kept);
  for (std::size_t f = 0; f < kept; ++f) {
    std::uint64_t at = start[f];
    for (std::size_t c = 0; c < chunks.count; ++c) {
      cursor[c * kept + f] = at;
      at += counts2[c * buckets2 + kept2.buckets[f]];
    }
    start[f + 1] = at;
  }
  std::vector<std::uint64_t> gathered(start.back());
  exec::parallel_for(chunks.count, num_threads,
                     [&](std::size_t first, std::size_t last) {
                       for (std::size_t c = first; c < last; ++c) {
                         std::uint64_t* next = cursor.data() + c * kept;
                         for (std::size_t i = chunks.begin(c);
                              i < chunks.begin(c + 1); ++i) {
                           const std::uint64_t key = order_key(chunks.sample[i]);
                           const std::uint32_t f = kept2.position[bucket2(key)];
                           if (f < kept) gathered[next[f]++] = key;
                         }
                       }
                     });

  // Each kept bucket holds a run of the wanted ranks; select them in place.
  std::vector<std::size_t> first_rank(kept + 1, ranks.size());
  for (std::size_t r = ranks.size(); r-- > 0;) {
    first_rank[kept2.position[hits[r].bucket]] = r;
  }
  std::vector<std::uint64_t> keys(ranks.size());
  exec::parallel_for(
      kept, num_threads, [&](std::size_t first, std::size_t last) {
        std::vector<std::uint64_t*> at;
        for (std::size_t f = first; f < last; ++f) {
          std::uint64_t* region = gathered.data() + start[f];
          at.clear();
          for (std::size_t r = first_rank[f]; r < first_rank[f + 1]; ++r) {
            at.push_back(region + (ranks[r] - hits[r].below));
          }
          select_in_place(region, gathered.data() + start[f + 1], at);
          for (std::size_t r = first_rank[f]; r < first_rank[f + 1]; ++r) {
            keys[r] = *at[r - first_rank[f]];
          }
        }
      });
  return keys;
}

}  // namespace

Ecdf::Ecdf(std::span<const double> sample)
    : sorted_(sample.begin(), sample.end()) {
  if (sorted_.empty()) throw ValidationError("ECDF of empty sample");
  // A NaN orders against nothing: undefined behaviour for the sort.
  if (std::any_of(sorted_.begin(), sorted_.end(),
                  [](double x) { return std::isnan(x); })) {
    throw ValidationError("ECDF of a sample holding NaN");
  }
  std::sort(sorted_.begin(), sorted_.end());
}

double Ecdf::operator()(double x) const noexcept {
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

double Ecdf::quantile(double q) const {
  if (!(q >= 0.0 && q <= 1.0)) {  // a NaN q too
    throw ValidationError("ECDF quantile outside [0,1]: " + std::to_string(q));
  }
  return interpolate_sorted(sorted_, q);
}

std::vector<std::pair<double, double>> Ecdf::points(std::size_t max_points) const {
  return ecdf_points_of_sorted(sorted_, max_points);
}

std::vector<std::pair<double, double>> ecdf_points_of_sorted(
    std::span<const double> sorted, std::size_t max_points) {
  return thinned_points(sorted.size(), max_points,
                        [&](std::size_t i) { return sorted[i]; });
}

std::vector<std::pair<double, double>> ecdf_points(
    std::span<const double> sample, std::size_t max_points, int num_threads) {
  const std::size_t n = sample.size();
  if (n == 0) throw ValidationError("ECDF of empty sample");
  const Chunks chunks{sample, std::clamp(n / kMinCountChunkSamples,
                                         std::size_t{1}, kMaxCountChunks)};
  std::vector<std::pair<std::uint64_t, std::uint64_t>> spans(chunks.count);
  exec::parallel_for(chunks.count, num_threads,
                     [&](std::size_t first, std::size_t last) {
                       for (std::size_t c = first; c < last; ++c) {
                         std::uint64_t lo =
                             std::numeric_limits<std::uint64_t>::max();
                         std::uint64_t hi = 0;
                         for (std::size_t i = chunks.begin(c);
                              i < chunks.begin(c + 1); ++i) {
                           const std::uint64_t key = order_key(sample[i]);
                           lo = std::min(lo, key);
                           hi = std::max(hi, key);
                         }
                         spans[c] = {lo, hi};
                       }
                     });
  std::uint64_t lo = spans.front().first;
  std::uint64_t hi = spans.front().second;
  for (const auto& [chunk_lo, chunk_hi] : spans) {
    lo = std::min(lo, chunk_lo);
    hi = std::max(hi, chunk_hi);
  }
  if (lo < kLowestKey || hi > kHighestKey) {
    throw ValidationError("ECDF of a sample holding NaN");
  }
  if (max_points == 0) return {};

  const std::size_t stride = thinning_stride(n, max_points);
  std::vector<std::size_t> ranks;
  ranks.reserve(n / stride + 2);
  for (std::size_t i = 0; i < n; i += stride) ranks.push_back(i);
  if (ranks.back() != n - 1) ranks.push_back(n - 1);
  const std::vector<std::uint64_t> keys =
      lo == hi ? std::vector<std::uint64_t>(ranks.size(), lo)
               : select_keys(chunks, lo, hi, ranks, num_threads);
  return thinned_points(n, max_points, [&](std::size_t i) {
    return key_value(keys[i == n - 1 ? keys.size() - 1 : i / stride]);
  });
}

}  // namespace cosmicdance::stats
