#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/random.h"

namespace zombie {
namespace {

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.stderr_mean(), 0.0);
}

TEST(RunningStatsTest, MatchesClosedForm) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatsTest, SingleValue) {
  RunningStats s;
  s.Add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(RunningStatsTest, ResetClears) {
  RunningStats s;
  s.Add(1.0);
  s.Add(2.0);
  s.Reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(WindowedMeanTest, BelowWindowActsAsPlainMean) {
  WindowedMean m(50);
  for (int i = 1; i <= 10; ++i) m.Add(i);
  EXPECT_DOUBLE_EQ(m.mean(), 5.5);
  EXPECT_EQ(m.count(), 10u);
}

TEST(WindowedMeanTest, WindowEvictsOldValues) {
  WindowedMean m(3);
  m.Add(100.0);
  m.Add(1.0);
  m.Add(2.0);
  m.Add(3.0);  // evicts 100
  EXPECT_DOUBLE_EQ(m.mean(), 2.0);
  EXPECT_EQ(m.count(), 3u);
  EXPECT_EQ(m.total_count(), 4u);
}

TEST(WindowedMeanTest, EmptyMeanIsZero) {
  WindowedMean m(5);
  EXPECT_EQ(m.mean(), 0.0);
}

TEST(DescriptiveTest, MeanVarianceMedian) {
  std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Mean(xs), 2.5);
  EXPECT_NEAR(Variance(xs), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(Median(xs), 2.5);
  EXPECT_DOUBLE_EQ(Median({5.0, 1.0, 3.0}), 3.0);
  EXPECT_EQ(Mean({}), 0.0);
  EXPECT_EQ(Variance({1.0}), 0.0);
}

TEST(DescriptiveTest, QuantileInterpolates) {
  std::vector<double> xs = {10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 1.0), 50.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.5), 30.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.25), 20.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.125), 15.0);
}

}  // namespace
}  // namespace zombie
