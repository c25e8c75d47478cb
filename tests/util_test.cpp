// Unit tests for the utility toolbox: RNG determinism and distribution
// sanity, statistics helpers, and the dense matrix.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/error.h"
#include "util/matrix.h"
#include "util/rng.h"
#include "util/stats.h"

namespace dcl::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.uniform() == b.uniform()) ? 1 : 0;
  EXPECT_LT(equal, 5);
}

TEST(Rng, ForkedStreamsAreIndependentAndDeterministic) {
  Rng parent1(7), parent2(7);
  Rng c1 = parent1.fork();
  Rng c2 = parent2.fork();
  for (int i = 0; i < 50; ++i) EXPECT_DOUBLE_EQ(c1.uniform(), c2.uniform());
  // Two successive forks of the same parent differ.
  Rng d1 = parent1.fork();
  int equal = 0;
  for (int i = 0; i < 50; ++i) equal += (c2.uniform() == d1.uniform()) ? 1 : 0;
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(11);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.exponential(0.25));
  EXPECT_NEAR(s.mean(), 0.25, 0.01);
}

TEST(Rng, ParetoRespectsScaleAndMean) {
  Rng rng(13);
  RunningStats s;
  for (int i = 0; i < 400000; ++i) {
    const double x = rng.pareto(2.5, 1.0);
    EXPECT_GE(x, 1.0);
    s.add(x);
  }
  // mean = alpha/(alpha-1) * xm = 2.5/1.5.
  EXPECT_NEAR(s.mean(), 2.5 / 1.5, 0.05);

  RunningStats sm;
  for (int i = 0; i < 400000; ++i) sm.add(rng.pareto_mean(2.5, 10.0));
  EXPECT_NEAR(sm.mean(), 10.0, 0.5);
}

TEST(Rng, SimplexSumsToOne) {
  Rng rng(5);
  for (int dim : {1, 2, 7}) {
    const auto v = rng.simplex(static_cast<std::size_t>(dim));
    ASSERT_EQ(v.size(), static_cast<std::size_t>(dim));
    double sum = 0.0;
    for (double x : v) {
      EXPECT_GT(x, 0.0);
      sum += x;
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(Stats, NormalizeAndCdf) {
  Pmf p{1.0, 3.0, 4.0, 2.0};
  ASSERT_TRUE(normalize(p));
  EXPECT_NEAR(p[0], 0.1, 1e-12);
  const Cdf c = pmf_to_cdf(p);
  EXPECT_NEAR(c[0], 0.1, 1e-12);
  EXPECT_NEAR(c[1], 0.4, 1e-12);
  EXPECT_DOUBLE_EQ(c[3], 1.0);
}

TEST(Stats, NormalizeRejectsZeroMass) {
  Pmf p{0.0, 0.0};
  EXPECT_FALSE(normalize(p));
  EXPECT_DOUBLE_EQ(p[0], 0.0);
}

TEST(Stats, L1Distance) {
  EXPECT_DOUBLE_EQ(l1_distance({0.5, 0.5}, {0.5, 0.5}), 0.0);
  EXPECT_DOUBLE_EQ(l1_distance({1.0, 0.0}, {0.0, 1.0}), 2.0);
}

TEST(Stats, HistogramIgnoresOutOfRange) {
  const Pmf h = histogram({1, 1, 2, 5, 0, -1, 99}, 3);
  // In-range samples: 1, 1, 2 -> masses 2/3, 1/3, 0.
  EXPECT_NEAR(h[0], 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(h[1], 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(h[2], 0.0);
}

TEST(Stats, HistogramAllOutOfRangeIsZero) {
  const Pmf h = histogram({9, 10}, 3);
  for (double x : h) EXPECT_DOUBLE_EQ(x, 0.0);
}

TEST(Stats, QuantileInterpolates) {
  std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.5);
}

TEST(Stats, QuantileMatchesSortedInterpolation) {
  // quantile() selects instead of sorting; it must give what a sorted copy
  // interpolates, with ties and at even and odd sizes.
  Rng rng(9);
  for (std::size_t size : {1u, 2u, 7u, 20u, 21u, 200u, 201u}) {
    std::vector<double> xs(size);
    for (double& x : xs) x = static_cast<double>(rng.uniform_int(0, 5)) * 0.25;
    std::vector<double> sorted = xs;
    std::sort(sorted.begin(), sorted.end());
    for (double q : {0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 1.0}) {
      const double pos = q * static_cast<double>(size - 1);
      const auto lo = static_cast<std::size_t>(pos);
      const std::size_t hi = std::min(lo + 1, size - 1);
      const double frac = pos - static_cast<double>(lo);
      EXPECT_EQ(quantile(xs, q), sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
          << "size " << size << " q " << q;
    }
  }
}

TEST(Stats, RunningStatsMatchesBatch) {
  std::vector<double> xs{3.0, 1.0, 4.0, 1.0, 5.0, 9.0};
  RunningStats s;
  for (double x : xs) s.add(x);
  EXPECT_NEAR(s.mean(), mean(xs), 1e-12);
  EXPECT_NEAR(s.variance(), variance(xs), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Stats, ArgmaxFirstOnTies) {
  EXPECT_EQ(argmax({0.1, 0.5, 0.5, 0.2}), 1u);
}

TEST(Matrix, RowNormalization) {
  Matrix m(2, 3);
  m(0, 0) = 2.0;
  m(0, 1) = 2.0;
  m(0, 2) = 4.0;
  // Row 1 stays all-zero -> becomes uniform.
  m.normalize_rows();
  EXPECT_NEAR(m(0, 0), 0.25, 1e-12);
  EXPECT_NEAR(m(0, 2), 0.5, 1e-12);
  EXPECT_NEAR(m(1, 0), 1.0 / 3.0, 1e-12);
}

TEST(Matrix, MaxAbsDiff) {
  Matrix a(2, 2), b(2, 2);
  a(1, 1) = 3.0;
  b(1, 1) = 1.0;
  EXPECT_DOUBLE_EQ(Matrix::max_abs_diff(a, b), 2.0);
}

TEST(Matrix, BoundsCheckedAccessThrows) {
  Matrix m(2, 2);
  EXPECT_THROW(m.at(2, 0), Error);
  EXPECT_THROW(m.at(0, 5), Error);
}

TEST(Error, EnsureMacroThrowsWithContext) {
  try {
    DCL_ENSURE_MSG(1 == 2, "custom context " << 42);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("custom context 42"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace dcl::util
