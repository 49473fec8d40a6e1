#include "ml/evaluator.h"

#include <gtest/gtest.h>

#include "ml/naive_bayes.h"
#include "util/random.h"

namespace zombie {
namespace {

SparseVector V(std::vector<std::pair<uint32_t, double>> pairs) {
  return SparseVector::FromPairs(std::move(pairs));
}

Dataset TwoFeatureData(size_t n, Rng* rng) {
  Dataset data;
  for (size_t i = 0; i < n; ++i) {
    int32_t y = rng->NextBernoulli(0.5) ? 1 : 0;
    data.Add(V({{static_cast<uint32_t>(y == 1 ? 0 : 1), 1.0}}), y);
  }
  return data;
}

TEST(DatasetTest, PositiveCounting) {
  Dataset d;
  EXPECT_EQ(d.positive_fraction(), 0.0);
  d.Add(V({{0, 1.0}}), 1);
  d.Add(V({{0, 1.0}}), 0);
  d.Add(V({{0, 1.0}}), 1);
  EXPECT_EQ(d.num_positive(), 2u);
  EXPECT_NEAR(d.positive_fraction(), 2.0 / 3.0, 1e-12);
}

TEST(DatasetTest, ShuffleKeepsContents) {
  Rng rng(3);
  Dataset d = TwoFeatureData(50, &rng);
  size_t pos_before = d.num_positive();
  d.Shuffle(&rng);
  EXPECT_EQ(d.size(), 50u);
  EXPECT_EQ(d.num_positive(), pos_before);
}

TEST(TrainEpochsTest, MultipleEpochsFeedEveryExample) {
  Rng rng(4);
  Dataset d = TwoFeatureData(40, &rng);
  NaiveBayesLearner nb;
  TrainEpochs(&nb, d, 3, &rng);
  EXPECT_EQ(nb.num_updates(), 120u);
}

TEST(HoldoutEvaluatorTest, EvaluatesAgainstFixedSet) {
  Rng rng(5);
  Dataset holdout = TwoFeatureData(100, &rng);
  HoldoutEvaluator eval(holdout);
  EXPECT_EQ(eval.size(), 100u);

  NaiveBayesLearner nb;
  double untrained = eval.Evaluate(nb).f1;
  EXPECT_EQ(untrained, 0.0);  // scores 0 -> all negative

  Dataset train = TwoFeatureData(200, &rng);
  TrainEpochs(&nb, train, 2, &rng);
  EXPECT_GT(eval.Evaluate(nb).f1, 0.95);
  EXPECT_GT(eval.Evaluate(nb).accuracy, 0.95);
}

TEST(HoldoutEvaluatorDeathTest, EmptyHoldoutAborts) {
  EXPECT_DEATH(HoldoutEvaluator{Dataset()}, "non-empty");
}

}  // namespace
}  // namespace zombie
