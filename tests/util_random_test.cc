#include "util/random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

namespace zombie {
namespace {

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBelow(bound), bound);
    }
  }
}

TEST(RngTest, NextBelowIsRoughlyUniform) {
  Rng rng(11);
  const uint64_t bound = 10;
  std::vector<int> counts(bound, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextBelow(bound)];
  for (uint64_t v = 0; v < bound; ++v) {
    EXPECT_NEAR(counts[v], n / static_cast<int>(bound), n / 100);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(3);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, NextInRangeInclusiveBounds) {
  Rng rng(5);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.NextInRange(-2, 2);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
  }
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(13);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += rng.NextBernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(17);
  const int n = 100000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, LogNormalMeanMatches) {
  Rng rng(19);
  // mean of exp(N(mu, s)) = exp(mu + s^2/2); mu chosen for mean 100.
  double sigma = 0.5;
  double mu = std::log(100.0) - sigma * sigma / 2;
  const int n = 200000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.NextLogNormal(mu, sigma);
  EXPECT_NEAR(sum / n, 100.0, 2.0);
}

TEST(RngTest, GammaMeanMatches) {
  Rng rng(29);
  const int n = 100000;
  // Gamma(shape, scale) has mean shape*scale; exercise shape < 1 too.
  for (double shape : {0.5, 2.0, 5.0}) {
    double sum = 0.0;
    for (int i = 0; i < n; ++i) sum += rng.NextGamma(shape, 2.0);
    EXPECT_NEAR(sum / n, shape * 2.0, shape * 2.0 * 0.03) << "shape " << shape;
  }
}

TEST(RngTest, BetaStaysInUnitIntervalWithCorrectMean) {
  Rng rng(31);
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    double b = rng.NextBeta(2.0, 3.0);
    ASSERT_GE(b, 0.0);
    ASSERT_LE(b, 1.0);
    sum += b;
  }
  EXPECT_NEAR(sum / n, 0.4, 0.01);  // alpha/(alpha+beta)
}

TEST(RngTest, ZipfRankZeroMostFrequent) {
  Rng rng(37);
  std::map<uint64_t, int> counts;
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextZipf(100, 1.1)];
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[5]);
  EXPECT_GT(counts[5], counts[50]);
  for (const auto& [rank, c] : counts) EXPECT_LT(rank, 100u);
}

TEST(RngTest, ZipfExponentZeroIsUniform) {
  Rng rng(41);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextZipf(10, 0.0)];
  for (int c : counts) EXPECT_NEAR(c, n / 10, n / 100);
}

TEST(RngTest, ZipfSingleElement) {
  Rng rng(43);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.NextZipf(1, 1.2), 0u);
}

TEST(RngTest, DiscreteRespectsWeights) {
  Rng rng(47);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) {
    size_t pick = rng.NextDiscrete(weights);
    ASSERT_LT(pick, weights.size());
    ++counts[pick];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.2);
}

TEST(RngTest, DiscreteAllZeroReturnsSize) {
  Rng rng(53);
  std::vector<double> weights = {0.0, 0.0};
  EXPECT_EQ(rng.NextDiscrete(weights), weights.size());
  EXPECT_EQ(rng.NextDiscrete({}), 0u);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(59);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ForkedStreamsAreIndependentAndDeterministic) {
  Rng a(99);
  Rng b(99);
  Rng fa = a.Fork();
  Rng fb = b.Fork();
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(fa.NextUint64(), fb.NextUint64());
  }
  // The fork differs from the parent's continued stream.
  Rng c(99);
  Rng fc = c.Fork();
  EXPECT_NE(fc.NextUint64(), c.NextUint64());
}

TEST(HashTest, HashBytesStableAndSensitive) {
  EXPECT_EQ(HashBytes("abc", 3), HashBytes("abc", 3));
  EXPECT_NE(HashBytes("abc", 3), HashBytes("abd", 3));
  EXPECT_NE(HashBytes("abc", 3), HashBytes("abc", 2));
}

TEST(HashTest, HashCombineOrderSensitive) {
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
  EXPECT_EQ(HashCombine(1, 2), HashCombine(1, 2));
}

}  // namespace
}  // namespace zombie
