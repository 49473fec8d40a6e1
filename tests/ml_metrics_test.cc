#include "ml/metrics.h"

#include <gtest/gtest.h>

#include "ml/majority.h"

namespace zombie {
namespace {

TEST(ConfusionTest, AddRoutesCells) {
  Confusion c;
  c.Add(1, 1);  // tp
  c.Add(1, 0);  // fn
  c.Add(0, 1);  // fp
  c.Add(0, 0);  // tn
  EXPECT_EQ(c.tp, 1);
  EXPECT_EQ(c.fn, 1);
  EXPECT_EQ(c.fp, 1);
  EXPECT_EQ(c.tn, 1);
  EXPECT_EQ(c.total(), 4);
}

TEST(MetricsTest, KnownValues) {
  Confusion c;
  c.tp = 8;
  c.fp = 2;
  c.fn = 4;
  c.tn = 6;
  EXPECT_DOUBLE_EQ(Accuracy(c), 0.7);
  EXPECT_DOUBLE_EQ(Precision(c), 0.8);
  EXPECT_NEAR(Recall(c), 8.0 / 12.0, 1e-12);
  double p = 0.8;
  double r = 8.0 / 12.0;
  EXPECT_NEAR(F1(c), 2 * p * r / (p + r), 1e-12);
}

TEST(MetricsTest, DegenerateDenominatorsAreZeroNotNan) {
  Confusion c;  // empty
  EXPECT_EQ(Accuracy(c), 0.0);
  EXPECT_EQ(Precision(c), 0.0);
  EXPECT_EQ(Recall(c), 0.0);
  EXPECT_EQ(F1(c), 0.0);
  c.tn = 10;  // no positives anywhere
  EXPECT_EQ(Precision(c), 0.0);
  EXPECT_EQ(Recall(c), 0.0);
  EXPECT_EQ(F1(c), 0.0);
  EXPECT_DOUBLE_EQ(Accuracy(c), 1.0);
}

TEST(MetricsTest, PerfectClassifier) {
  Confusion c;
  c.tp = 5;
  c.tn = 5;
  EXPECT_DOUBLE_EQ(F1(c), 1.0);
  EXPECT_DOUBLE_EQ(Accuracy(c), 1.0);
}

TEST(AucTest, PerfectSeparation) {
  EXPECT_DOUBLE_EQ(
      AucFromScores({-2.0, -1.0, 1.0, 2.0}, {0, 0, 1, 1}), 1.0);
}

TEST(AucTest, PerfectInversion) {
  EXPECT_DOUBLE_EQ(
      AucFromScores({2.0, 1.0, -1.0, -2.0}, {0, 0, 1, 1}), 0.0);
}

TEST(AucTest, AllTiedIsHalf) {
  EXPECT_DOUBLE_EQ(AucFromScores({0.5, 0.5, 0.5, 0.5}, {0, 1, 0, 1}), 0.5);
}

TEST(AucTest, SingleClassIsZero) {
  EXPECT_EQ(AucFromScores({1.0, 2.0}, {1, 1}), 0.0);
  EXPECT_EQ(AucFromScores({1.0, 2.0}, {0, 0}), 0.0);
  EXPECT_EQ(AucFromScores({}, {}), 0.0);
}

TEST(AucTest, PartialOrderKnownValue) {
  // scores: pos {3, 1}, neg {2, 0}. Pairs: (3>2),(3>0),(1<2),(1>0) -> 3/4.
  EXPECT_DOUBLE_EQ(AucFromScores({3.0, 1.0, 2.0, 0.0}, {1, 1, 0, 0}), 0.75);
}

TEST(AucTest, MidrankHandlesMixedTies) {
  // pos {1}, neg {1}: tie -> 0.5 credit.
  EXPECT_DOUBLE_EQ(AucFromScores({1.0, 1.0}, {1, 0}), 0.5);
}

TEST(EvaluateLearnerTest, UntrainedModelPredictsNegative) {
  // Untrained learners score 0; ties classify negative, so recall is 0,
  // not 1 (see learner.h).
  MajorityClassLearner learner;
  Dataset data;
  data.Add(SparseVector::FromPairs({{0, 1.0}}), 1);
  data.Add(SparseVector::FromPairs({{1, 1.0}}), 0);
  BinaryMetrics m = EvaluateLearner(learner, data);
  EXPECT_EQ(m.confusion.tp, 0);
  EXPECT_EQ(m.confusion.fn, 1);
  EXPECT_EQ(m.confusion.tn, 1);
  EXPECT_EQ(m.f1, 0.0);
}

TEST(EvaluateLearnerTest, MajorityLearnerScoresBySeenBalance) {
  MajorityClassLearner learner;
  SparseVector x = SparseVector::FromPairs({{0, 1.0}});
  for (int i = 0; i < 9; ++i) learner.Update(x, 1);
  learner.Update(x, 0);
  Dataset data;
  data.Add(x, 1);
  data.Add(x, 0);
  BinaryMetrics m = EvaluateLearner(learner, data);
  // Majority class is positive: predicts 1 everywhere.
  EXPECT_EQ(m.confusion.tp, 1);
  EXPECT_EQ(m.confusion.fp, 1);
  EXPECT_DOUBLE_EQ(m.recall, 1.0);
}

// A learner whose score is fixed per example index via a lookup; used to
// test threshold tuning with hand-picked score layouts.
class FixedScoreLearner : public Learner {
 public:
  explicit FixedScoreLearner(std::vector<double> scores)
      : scores_(std::move(scores)) {}

  void Update(SparseVectorView, int32_t) override {}
  double Score(SparseVectorView x) const override {
    // Feature index 0 carries the example id.
    return scores_[static_cast<size_t>(x.value_at(0))];
  }
  void Reset() override {}
  std::unique_ptr<Learner> Clone() const override {
    return std::make_unique<FixedScoreLearner>(scores_);
  }
  std::string name() const override { return "fixed"; }
  size_t num_updates() const override { return 0; }

 private:
  std::vector<double> scores_;
};

Dataset IndexedDataset(const std::vector<int32_t>& labels) {
  Dataset d;
  for (size_t i = 0; i < labels.size(); ++i) {
    d.Add(SparseVector::FromPairs({{0, static_cast<double>(i)}}), labels[i]);
  }
  return d;
}

TEST(TunedEvaluationTest, FindsBetterThresholdThanZero) {
  // Scores are well-ordered but all shifted negative: at threshold 0 the
  // classifier predicts all-negative (F1 = 0); the tuned threshold
  // separates perfectly.
  FixedScoreLearner learner({-4.0, -3.0, -2.0, -1.0});
  Dataset data = IndexedDataset({0, 0, 1, 1});
  BinaryMetrics zero = EvaluateLearner(learner, data);
  EXPECT_EQ(zero.f1, 0.0);
  double tau = 0.0;
  BinaryMetrics tuned = EvaluateLearnerTuned(learner, data, &tau);
  EXPECT_DOUBLE_EQ(tuned.f1, 1.0);
  EXPECT_GT(tau, -3.0);
  EXPECT_LT(tau, -2.0);
}

TEST(TunedEvaluationTest, ImperfectOrderingPicksBestSplit) {
  // labels by descending score: 1, 0, 1, 0. Best F1 split takes top 3:
  // tp=2 fp=1 fn=0 -> p=2/3 r=1 -> f1=0.8.
  FixedScoreLearner learner({4.0, 3.0, 2.0, 1.0});
  Dataset data = IndexedDataset({1, 0, 1, 0});
  BinaryMetrics tuned = EvaluateLearnerTuned(learner, data);
  EXPECT_NEAR(tuned.f1, 0.8, 1e-12);
}

TEST(TunedEvaluationTest, AllNegativeDataStaysZero) {
  FixedScoreLearner learner({1.0, 2.0});
  Dataset data = IndexedDataset({0, 0});
  BinaryMetrics tuned = EvaluateLearnerTuned(learner, data);
  EXPECT_EQ(tuned.f1, 0.0);
  EXPECT_EQ(tuned.confusion.fp, 0);  // all-negative classifier chosen
}

TEST(TunedEvaluationTest, TiedScoresNotSplit) {
  // Two examples share a score but have different labels; the threshold
  // cannot separate them, so perfect F1 is unattainable.
  FixedScoreLearner learner({1.0, 1.0, 0.0});
  Dataset data = IndexedDataset({1, 0, 0});
  BinaryMetrics tuned = EvaluateLearnerTuned(learner, data);
  EXPECT_LT(tuned.f1, 1.0);
  EXPECT_GT(tuned.f1, 0.0);
}

TEST(TunedEvaluationTest, TunedNeverWorseThanZeroThreshold) {
  FixedScoreLearner learner({-1.0, 0.5, 2.0, -0.3, 1.5});
  Dataset data = IndexedDataset({0, 1, 1, 0, 1});
  BinaryMetrics zero = EvaluateLearner(learner, data);
  BinaryMetrics tuned = EvaluateLearnerTuned(learner, data);
  EXPECT_GE(tuned.f1, zero.f1);
  // AUC is threshold-free and must be identical.
  EXPECT_DOUBLE_EQ(tuned.auc, zero.auc);
}

TEST(BinaryMetricsTest, ToStringContainsFields) {
  BinaryMetrics m;
  m.accuracy = 0.5;
  std::string s = m.ToString();
  EXPECT_NE(s.find("acc=0.500"), std::string::npos);
  EXPECT_NE(s.find("f1="), std::string::npos);
}

}  // namespace
}  // namespace zombie
