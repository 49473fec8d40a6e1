#include "ml/learning_curve.h"

#include <gtest/gtest.h>

namespace zombie {
namespace {

CurvePoint P(size_t items, int64_t micros, double quality) {
  CurvePoint p;
  p.items_processed = items;
  p.virtual_micros = micros;
  p.quality = quality;
  return p;
}

TEST(LearningCurveTest, EmptyDefaults) {
  LearningCurve c;
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.FinalQuality(), 0.0);
  EXPECT_EQ(c.PeakQuality(), 0.0);
}

TEST(LearningCurveTest, FinalAndPeak) {
  LearningCurve c;
  c.Add(P(0, 0, 0.0));
  c.Add(P(10, 100, 0.8));
  c.Add(P(20, 200, 0.6));  // quality can regress
  EXPECT_DOUBLE_EQ(c.FinalQuality(), 0.6);
  EXPECT_DOUBLE_EQ(c.PeakQuality(), 0.8);
  EXPECT_EQ(c.size(), 3u);
}

TEST(LearningCurveTest, CsvHasHeaderAndRows) {
  LearningCurve c;
  c.Add(P(0, 0, 0.0));
  c.Add(P(25, 1000000, 0.5));
  std::string csv = c.ToCsv();
  EXPECT_NE(csv.find("items,virtual_seconds,quality"), std::string::npos);
  EXPECT_NE(csv.find("\n25,1.000000,0.500000"), std::string::npos);
}

TEST(LearningCurveDeathTest, NonMonotonicItemsAbort) {
  LearningCurve c;
  c.Add(P(10, 100, 0.1));
  EXPECT_DEATH(c.Add(P(5, 200, 0.2)), "Check failed");
}

TEST(LearningCurveDeathTest, NonMonotonicTimeAborts) {
  LearningCurve c;
  c.Add(P(10, 100, 0.1));
  EXPECT_DEATH(c.Add(P(20, 50, 0.2)), "Check failed");
}

}  // namespace
}  // namespace zombie
