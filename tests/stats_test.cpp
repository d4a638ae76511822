#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "stats/descriptive.hpp"
#include "stats/ecdf.hpp"

namespace cosmicdance::stats {
namespace {

TEST(PercentileTest, Endpoints) {
  const std::vector<double> v{3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 2.0);
}

TEST(PercentileTest, LinearInterpolation) {
  const std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile(v, 75.0), 7.5);
}

TEST(PercentileTest, SingleElement) {
  const std::vector<double> v{42.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 42.0);
  EXPECT_DOUBLE_EQ(percentile(v, 99.0), 42.0);
}

TEST(PercentileTest, Errors) {
  const std::vector<double> empty;
  const std::vector<double> v{1.0};
  EXPECT_THROW(static_cast<void>(percentile(empty, 50.0)), ValidationError);
  EXPECT_THROW(static_cast<void>(percentile(v, -1.0)), ValidationError);
  EXPECT_THROW(static_cast<void>(percentile(v, 100.5)), ValidationError);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(static_cast<void>(percentile(v, nan)), ValidationError);
  EXPECT_THROW(static_cast<void>(percentile_of_sorted(v, nan)), ValidationError);
}

TEST(PercentileTest, NanIsAValidationError) {
  // A NaN orders against nothing, so no sort or selection may see one.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> ps{50.0};
  for (const std::vector<double>& v :
       {std::vector<double>{1.0, nan, 3.0}, std::vector<double>{nan},
        std::vector<double>{2.0, 1.0, -nan}}) {
    EXPECT_THROW(static_cast<void>(percentile(v, 50.0)), ValidationError);
    EXPECT_THROW(static_cast<void>(percentile(v, 0.0)), ValidationError);
    EXPECT_THROW(static_cast<void>(median(v)), ValidationError);
    EXPECT_THROW(static_cast<void>(percentiles(v, ps)), ValidationError);
    EXPECT_THROW(static_cast<void>(summarize(v)), ValidationError);
    EXPECT_THROW(Ecdf{v}, ValidationError);
  }
}

TEST(PercentileTest, BatchMatchesSingle) {
  const std::vector<double> v{5.0, 1.0, 9.0, 3.0, 7.0};
  const std::vector<double> ps{10.0, 50.0, 95.0};
  const std::vector<double> batch = percentiles(v, ps);
  ASSERT_EQ(batch.size(), 3u);
  for (std::size_t i = 0; i < ps.size(); ++i) {
    EXPECT_DOUBLE_EQ(batch[i], percentile(v, ps[i]));
  }
}

// Percentile is monotone in p and bounded by the sample range.
class PercentileProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PercentileProperty, MonotoneAndBounded) {
  Rng rng(GetParam());
  std::vector<double> v;
  for (int i = 0; i < 100; ++i) v.push_back(rng.normal(0.0, 10.0));
  double previous = percentile(v, 0.0);
  EXPECT_DOUBLE_EQ(previous, min(v));
  for (double p = 5.0; p <= 100.0; p += 5.0) {
    const double current = percentile(v, p);
    EXPECT_GE(current, previous);
    previous = current;
  }
  EXPECT_DOUBLE_EQ(previous, max(v));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PercentileProperty,
                         ::testing::Values(1u, 2u, 3u, 17u, 99u));

// ---- percentile and median by selection -------------------------------------

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// percentile() and median() select their ranks: they must equal
/// percentile_of_sorted() of a sorted copy bit for bit, at exact ranks, at
/// ranks between two values, and at both ends.
void expect_selection_matches_the_sort(const std::vector<double>& sample) {
  std::vector<double> sorted = sample;
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> ps = {0.0,  100.0, 50.0, 90.0, 95.0, 99.0,
                            25.0, 75.0,  1e-9, 99.999, 33.3};
  if (sample.size() > 1) {
    const double step = 100.0 / static_cast<double>(sample.size() - 1);
    for (std::size_t k = 0; k < sample.size(); ++k) {
      ps.push_back(std::min(100.0, step * static_cast<double>(k)));
      ps.push_back(std::min(100.0, step * (static_cast<double>(k) + 0.5)));
    }
  }
  for (const double p : ps) {
    EXPECT_EQ(bits(percentile(sample, p)), bits(percentile_of_sorted(sorted, p)))
        << "n=" << sample.size() << " p=" << p;
  }
  EXPECT_EQ(bits(median(sample)), bits(percentile_of_sorted(sorted, 50.0)))
      << "n=" << sample.size();
}

TEST(PercentileSelection, OneAndTwoElements) {
  expect_selection_matches_the_sort({42.0});
  expect_selection_matches_the_sort({-3.5});
  expect_selection_matches_the_sort({7.0, 2.0});
  expect_selection_matches_the_sort({2.0, 7.0});
  expect_selection_matches_the_sort({5.0, 5.0});
}

TEST(PercentileSelection, Ties) {
  Rng rng(31);
  for (const std::size_t n : {3u, 4u, 10u, 101u, 1000u}) {
    std::vector<double> v;
    for (std::size_t i = 0; i < n; ++i) {
      v.push_back(static_cast<double>(rng.uniform_int(0, 3)) * 0.25);
    }
    expect_selection_matches_the_sort(v);
  }
  expect_selection_matches_the_sort(std::vector<double>(17, 550.25));
}

TEST(PercentileSelection, Infinities) {
  // An infinity at an exact rank blends to NaN (inf * 0): the same NaN
  // either way.
  const double inf = std::numeric_limits<double>::infinity();
  expect_selection_matches_the_sort({inf, -inf});
  expect_selection_matches_the_sort({1.0, inf, -inf, 2.0, inf});
  expect_selection_matches_the_sort({-inf, -inf, 3.0});
  expect_selection_matches_the_sort({inf});
}

TEST(PercentileSelection, RandomSamplesInEveryOrder) {
  Rng rng(57);
  for (const std::size_t n : {5u, 64u, 999u, 4096u}) {
    std::vector<double> v;
    for (std::size_t i = 0; i < n; ++i) v.push_back(rng.normal(550.0, 20.0));
    expect_selection_matches_the_sort(v);
    std::sort(v.begin(), v.end());
    expect_selection_matches_the_sort(v);
    std::reverse(v.begin(), v.end());
    expect_selection_matches_the_sort(v);
  }
}

TEST(DescriptiveTest, MeanVarianceStddev) {
  const std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(v), 5.0);
  EXPECT_NEAR(variance(v), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(stddev(v), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(DescriptiveTest, SingleElementVarianceIsZero) {
  const std::vector<double> v{3.0};
  EXPECT_DOUBLE_EQ(variance(v), 0.0);
}

TEST(DescriptiveTest, EmptyThrows) {
  const std::vector<double> empty;
  EXPECT_THROW(static_cast<void>(mean(empty)), ValidationError);
  EXPECT_THROW(static_cast<void>(variance(empty)), ValidationError);
  EXPECT_THROW(static_cast<void>(min(empty)), ValidationError);
  EXPECT_THROW(static_cast<void>(max(empty)), ValidationError);
  EXPECT_THROW(static_cast<void>(summarize(empty)), ValidationError);
}

TEST(DescriptiveTest, SummaryConsistent) {
  Rng rng(7);
  std::vector<double> v;
  for (int i = 0; i < 1000; ++i) v.push_back(rng.uniform(0.0, 100.0));
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, v.size());
  EXPECT_DOUBLE_EQ(s.min, min(v));
  EXPECT_DOUBLE_EQ(s.max, max(v));
  EXPECT_DOUBLE_EQ(s.median, median(v));
  EXPECT_DOUBLE_EQ(s.p95, percentile(v, 95.0));
  EXPECT_LE(s.p25, s.median);
  EXPECT_LE(s.median, s.p75);
  EXPECT_LE(s.p75, s.p95);
  EXPECT_LE(s.p95, s.p99);
}

TEST(EcdfTest, StepValues) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  const Ecdf ecdf(v);
  EXPECT_DOUBLE_EQ(ecdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(ecdf(1.0), 0.25);
  EXPECT_DOUBLE_EQ(ecdf(2.5), 0.5);
  EXPECT_DOUBLE_EQ(ecdf(4.0), 1.0);
  EXPECT_DOUBLE_EQ(ecdf(100.0), 1.0);
}

TEST(EcdfTest, QuantileInvertsRoughly) {
  Rng rng(11);
  std::vector<double> v;
  for (int i = 0; i < 5000; ++i) v.push_back(rng.normal(0.0, 1.0));
  const Ecdf ecdf(v);
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    EXPECT_NEAR(ecdf(ecdf.quantile(q)), q, 0.01);
  }
}

TEST(EcdfTest, QuantileMatchesPercentile) {
  const std::vector<double> v{5.0, 1.0, 3.0, 2.0, 4.0};
  const Ecdf ecdf(v);
  EXPECT_DOUBLE_EQ(ecdf.quantile(0.5), percentile(v, 50.0));
  EXPECT_DOUBLE_EQ(ecdf.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(ecdf.quantile(1.0), 5.0);
}

TEST(EcdfTest, Errors) {
  const std::vector<double> empty;
  EXPECT_THROW(Ecdf{empty}, ValidationError);
  const std::vector<double> v{1.0};
  const Ecdf ecdf(v);
  EXPECT_THROW(static_cast<void>(ecdf.quantile(-0.1)), ValidationError);
  EXPECT_THROW(static_cast<void>(ecdf.quantile(1.1)), ValidationError);
  EXPECT_THROW(
      static_cast<void>(ecdf.quantile(std::numeric_limits<double>::quiet_NaN())),
      ValidationError);
}

TEST(EcdfTest, PointsThinnedAndTerminated) {
  std::vector<double> v;
  for (int i = 0; i < 1000; ++i) v.push_back(static_cast<double>(i));
  const Ecdf ecdf(v);
  const auto pts = ecdf.points(50);
  EXPECT_LE(pts.size(), 52u);
  EXPECT_DOUBLE_EQ(pts.back().second, 1.0);
  EXPECT_DOUBLE_EQ(pts.back().first, 999.0);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_GE(pts[i].first, pts[i - 1].first);
    EXPECT_GE(pts[i].second, pts[i - 1].second);
  }
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(2.0, 3.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(RngTest, NormalMoments) {
  Rng rng(6);
  std::vector<double> v;
  for (int i = 0; i < 20000; ++i) v.push_back(rng.normal(5.0, 2.0));
  EXPECT_NEAR(mean(v), 5.0, 0.1);
  EXPECT_NEAR(stddev(v), 2.0, 0.1);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(8);
  std::vector<double> v;
  for (int i = 0; i < 20000; ++i) v.push_back(rng.exponential(3.0));
  EXPECT_NEAR(mean(v), 3.0, 0.15);
  EXPECT_GE(min(v), 0.0);
}

TEST(RngTest, PoissonMean) {
  Rng rng(9);
  double total = 0.0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) total += static_cast<double>(rng.poisson(4.5));
  EXPECT_NEAR(total / n, 4.5, 0.2);
  // Large-mean path.
  total = 0.0;
  for (int i = 0; i < n; ++i) total += static_cast<double>(rng.poisson(80.0));
  EXPECT_NEAR(total / n, 80.0, 1.0);
}

TEST(RngTest, BernoulliEdges) {
  Rng rng(10);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.25) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.02);
}

TEST(RngTest, UniformIntInclusive) {
  Rng rng(12);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, SplitIndependence) {
  Rng parent(77);
  Rng child = parent.split();
  // The child stream should not replay the parent stream.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent() == child()) ++same;
  }
  EXPECT_LT(same, 2);
}

}  // namespace
}  // namespace cosmicdance::stats
