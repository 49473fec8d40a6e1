#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>

#include "ml/adagrad_lr.h"
#include "ml/dataset.h"
#include "ml/evaluator.h"
#include "ml/feature_pruner.h"
#include "ml/logistic_regression.h"
#include "ml/majority.h"
#include "ml/metrics.h"
#include "ml/naive_bayes.h"
#include "ml/pegasos_svm.h"
#include "ml/perceptron.h"
#include "util/random.h"

namespace zombie {
namespace {

SparseVector V(std::vector<std::pair<uint32_t, double>> pairs) {
  return SparseVector::FromPairs(std::move(pairs));
}

// A linearly separable two-cluster dataset: positives light up features
// [0, 5), negatives [5, 10), with a little noise.
Dataset SeparableData(size_t n, Rng* rng) {
  Dataset data;
  for (size_t i = 0; i < n; ++i) {
    int32_t y = rng->NextBernoulli(0.5) ? 1 : 0;
    std::vector<std::pair<uint32_t, double>> pairs;
    uint32_t base = y == 1 ? 0 : 5;
    for (int k = 0; k < 3; ++k) {
      pairs.emplace_back(base + static_cast<uint32_t>(rng->NextBelow(5)),
                         1.0);
    }
    // Shared noise feature.
    pairs.emplace_back(10 + static_cast<uint32_t>(rng->NextBelow(3)), 1.0);
    data.Add(V(std::move(pairs)), y);
  }
  return data;
}

// Every learner under test, as fresh prototypes.
std::vector<std::unique_ptr<Learner>> AllLearners() {
  std::vector<std::unique_ptr<Learner>> out;
  out.push_back(std::make_unique<NaiveBayesLearner>());
  out.push_back(std::make_unique<LogisticRegressionLearner>());
  out.push_back(std::make_unique<AveragedPerceptronLearner>());
  out.push_back(std::make_unique<PegasosSvmLearner>());
  out.push_back(std::make_unique<AdaGradLogisticLearner>());
  return out;
}

class EveryLearnerTest : public testing::TestWithParam<size_t> {
 protected:
  std::unique_ptr<Learner> MakeLearner() {
    return AllLearners()[GetParam()]->Clone();
  }
};

TEST_P(EveryLearnerTest, LearnsSeparableData) {
  Rng rng(42);
  Dataset train = SeparableData(300, &rng);
  Dataset test = SeparableData(100, &rng);
  auto learner = MakeLearner();
  TrainEpochs(learner.get(), train, 3, &rng);
  BinaryMetrics m = EvaluateLearner(*learner, test);
  EXPECT_GT(m.accuracy, 0.9) << learner->name();
  EXPECT_GT(m.f1, 0.9) << learner->name();
}

TEST_P(EveryLearnerTest, ResetForgetsEverything) {
  Rng rng(43);
  Dataset train = SeparableData(100, &rng);
  auto learner = MakeLearner();
  TrainEpochs(learner.get(), train, 1, &rng);
  learner->Reset();
  EXPECT_EQ(learner->num_updates(), 0u);
  SparseVector x = V({{0, 1.0}, {1, 1.0}});
  EXPECT_EQ(learner->Score(x), 0.0) << learner->name();
}

TEST_P(EveryLearnerTest, CloneIsFreshAndIndependent) {
  Rng rng(44);
  Dataset train = SeparableData(100, &rng);
  auto learner = MakeLearner();
  TrainEpochs(learner.get(), train, 1, &rng);
  auto clone = learner->Clone();
  EXPECT_EQ(clone->num_updates(), 0u) << learner->name();
  EXPECT_EQ(clone->name(), learner->name());
}

TEST_P(EveryLearnerTest, ProbabilitiesInUnitInterval) {
  Rng rng(45);
  Dataset train = SeparableData(200, &rng);
  auto learner = MakeLearner();
  TrainEpochs(learner.get(), train, 2, &rng);
  for (ExampleView e : train.examples()) {
    double p = learner->PredictProbability(e.x);
    EXPECT_GE(p, 0.0) << learner->name();
    EXPECT_LE(p, 1.0) << learner->name();
  }
}

TEST_P(EveryLearnerTest, PredictConsistentWithScore) {
  Rng rng(46);
  Dataset train = SeparableData(150, &rng);
  auto learner = MakeLearner();
  TrainEpochs(learner.get(), train, 2, &rng);
  for (ExampleView e : train.examples()) {
    double s = learner->Score(e.x);
    EXPECT_EQ(learner->Predict(e.x), s > 0.0 ? 1 : 0) << learner->name();
  }
}

TEST_P(EveryLearnerTest, RejectsNonBinaryLabels) {
  auto learner = MakeLearner();
  SparseVector x = V({{0, 1.0}});
  EXPECT_DEATH(learner->Update(x, 2), "binary");
  EXPECT_DEATH(learner->Update(x, -1), "binary");
}

TEST_P(EveryLearnerTest, ExportWeightMagnitudesMatchesSupportContract) {
  Rng rng(47);
  Dataset train = SeparableData(200, &rng);
  auto learner = MakeLearner();
  TrainEpochs(learner.get(), train, 2, &rng);
  std::vector<double> mags;
  const bool supported = learner->ExportWeightMagnitudes(&mags);
  ASSERT_TRUE(supported) << learner->name();
  double max_mag = 0.0;
  for (double m : mags) {
    EXPECT_GE(m, 0.0) << learner->name();
    max_mag = std::max(max_mag, m);
  }
  EXPECT_GT(max_mag, 0.0)
      << "trained " << learner->name() << " exported all-zero magnitudes";
}

TEST_P(EveryLearnerTest, CompactFeaturesPreservesScoresBitExactly) {
  Rng rng(48);
  Dataset train = SeparableData(250, &rng);
  auto learner = MakeLearner();
  TrainEpochs(learner.get(), train, 2, &rng);

  // Monotone remap: drop 3, 7 and the noise block [10, 13) so kept dense
  // ids actually shift (not an identity prefix).
  const uint32_t kDim = 13;
  std::vector<uint32_t> old_to_new(kDim, simd::kPrunedFeature);
  uint32_t next = 0;
  for (uint32_t f = 0; f < 10; ++f) {
    if (f == 3 || f == 7) continue;
    old_to_new[f] = next++;
  }

  // The contract: post-compaction Score on the remapped vector is
  // bit-identical to pre-compaction Score on the original with pruned
  // features dropped. Capture the expected bits before mutating state.
  Dataset test = SeparableData(60, &rng);
  std::vector<SparseVector> filtered;
  std::vector<SparseVector> remapped;
  std::vector<uint64_t> want_bits;
  for (ExampleView e : test.examples()) {
    std::vector<std::pair<uint32_t, double>> keep;
    std::vector<std::pair<uint32_t, double>> dense;
    for (size_t i = 0; i < e.x.num_nonzero(); ++i) {
      const uint32_t f = e.x.index_at(i);
      if (f >= kDim || old_to_new[f] == simd::kPrunedFeature) continue;
      keep.emplace_back(f, e.x.value_at(i));
      dense.emplace_back(old_to_new[f], e.x.value_at(i));
    }
    filtered.push_back(V(std::move(keep)));
    remapped.push_back(V(std::move(dense)));
  }
  for (const SparseVector& x : filtered) {
    uint64_t bits = 0;
    const double s = learner->Score(x);
    std::memcpy(&bits, &s, sizeof(bits));
    want_bits.push_back(bits);
  }

  ASSERT_TRUE(learner->CompactFeatures(old_to_new, next)) << learner->name();
  for (size_t i = 0; i < remapped.size(); ++i) {
    uint64_t bits = 0;
    const double s = learner->Score(remapped[i]);
    std::memcpy(&bits, &s, sizeof(bits));
    EXPECT_EQ(bits, want_bits[i])
        << learner->name() << " example " << i << ": compacted score "
        << s << " diverged";
  }
  // Training continues after compaction in the engine; a compacted-space
  // update must not fault or reject compacted ids.
  learner->Update(remapped[0], 1);
}

INSTANTIATE_TEST_SUITE_P(AllLearners, EveryLearnerTest,
                         testing::Values(0, 1, 2, 3, 4));

// --- ScoreBatch: the batched scoring path ----------------------------------

// Sparse rows over [0, dim) with some negative values (naive Bayes skips
// them, the linear learners do not) and a label tied to the low ids.
Dataset MixedData(size_t n, uint32_t dim, Rng* rng) {
  Dataset data;
  for (size_t i = 0; i < n; ++i) {
    std::vector<std::pair<uint32_t, double>> pairs;
    const size_t nnz = 4 + rng->NextBelow(20);
    for (size_t k = 0; k < nnz; ++k) {
      pairs.emplace_back(static_cast<uint32_t>(rng->NextBelow(dim)),
                         rng->NextGaussian(0.5, 1.0));
    }
    SparseVector x = V(std::move(pairs));
    const int32_t y = x.num_nonzero() > 0 && x.index_at(0) < dim / 8 ? 1 : 0;
    data.Add(x, y);
  }
  return data;
}

// Asserts every route to a score over `data` matches per-row Score() bit
// for bit: one whole-dataset ScoreBatch and ScoreAll.
void ExpectBatchMatchesPerRow(const Learner& learner, const Dataset& data,
                              const char* stage) {
  SCOPED_TRACE(learner.name() + " " + stage);
  const size_t n = data.size();
  std::vector<double> want(n);
  for (size_t i = 0; i < n; ++i) want[i] = learner.Score(data.example(i).x);
  const size_t bytes = n * sizeof(double);

  std::vector<double> batch(n);
  learner.ScoreBatch(data, batch.data());
  EXPECT_EQ(std::memcmp(batch.data(), want.data(), bytes), 0);

  std::vector<double> scores;
  std::vector<int32_t> labels;
  ScoreAll(learner, data, &scores, &labels);
  ASSERT_EQ(scores.size(), n);
  EXPECT_EQ(std::memcmp(scores.data(), want.data(), bytes), 0);
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(labels[i], data.label(i));
}

TEST(ScoreBatchTest, BitIdenticalToPerRowScoreForEveryLearner) {
  std::vector<std::unique_ptr<Learner>> learners = AllLearners();
  learners.push_back(std::make_unique<MajorityClassLearner>());
  for (const auto& prototype : learners) {
    auto learner = prototype->Clone();
    Rng rng(49);
    // Trained on ids < 600; scored on ids < 900, so some scored ids lie
    // past every per-feature table the model holds.
    Dataset train = MixedData(300, 600, &rng);
    Dataset test = MixedData(700, 900, &rng);
    ExpectBatchMatchesPerRow(*learner, test, "untrained");
    TrainEpochs(learner.get(), train, 1, &rng);
    ExpectBatchMatchesPerRow(*learner, test, "trained");

    // Monotone remap keeping two ids in three below 600.
    std::vector<uint32_t> old_to_new(600, simd::kPrunedFeature);
    uint32_t next = 0;
    for (uint32_t f = 0; f < 600; ++f) {
      if (f % 3 != 2) old_to_new[f] = next++;
    }
    if (!learner->CompactFeatures(old_to_new, next)) continue;
    Dataset compacted;
    for (ExampleView e : test.examples()) {
      std::vector<std::pair<uint32_t, double>> dense;
      for (size_t i = 0; i < e.x.num_nonzero(); ++i) {
        const uint32_t f = e.x.index_at(i);
        if (f < 600 && old_to_new[f] != simd::kPrunedFeature) {
          dense.emplace_back(old_to_new[f], e.x.value_at(i));
        }
      }
      compacted.Add(V(std::move(dense)), e.y);
    }
    ExpectBatchMatchesPerRow(*learner, compacted, "compacted");
  }
}

// The engine derives a pull's probability from the pull's one Score; that
// shortcut holds only while no learner overrides PredictProbability.
TEST(PredictProbabilityTest, EqualsProbabilityFromScoreForEveryLearner) {
  std::vector<std::unique_ptr<Learner>> learners = AllLearners();
  learners.push_back(std::make_unique<MajorityClassLearner>());
  for (const auto& prototype : learners) {
    auto learner = prototype->Clone();
    SCOPED_TRACE(learner->name());
    Rng rng(50);
    Dataset train = MixedData(300, 600, &rng);
    Dataset test = MixedData(200, 900, &rng);
    for (int trained = 0; trained < 2; ++trained) {
      if (trained == 1) TrainEpochs(learner.get(), train, 1, &rng);
      for (ExampleView e : test.examples()) {
        const double p = learner->PredictProbability(e.x);
        const double want = Learner::ProbabilityFromScore(learner->Score(e.x));
        ASSERT_EQ(std::memcmp(&p, &want, sizeof(p)), 0)
            << "trained=" << trained << " p=" << p << " want=" << want;
      }
    }
  }
}

TEST(ScoreBatchTest, NaiveBayesSlotsMatchPerRowScore) {
  // The slot weights against per-row Score on: explicit zero and negative
  // values, ids past both count vectors (and far past any dense table), a
  // Shuffle'd dataset, and a FeaturePruner::CompactDataset output scored by
  // the compacted model.
  Rng rng(51);
  NaiveBayesLearner nb;
  FeaturePrunerOptions opts = ConservativePruning();
  opts.freeze_after_items = 300;
  FeaturePruner pruner(opts);
  Dataset train = MixedData(300, 600, &rng);
  for (ExampleView e : train.examples()) {
    pruner.ObserveExample(e.x);
    nb.Update(e.x, e.y);
  }
  Dataset test = MixedData(200, 900, &rng);
  const uint32_t idx[] = {5, 17, 599, 600, 899, 4000000000u};
  const double val[] = {0.0, -1.5, 2.0, 0.0, 1.0, 3.0};
  test.Add(SparseVectorView(idx, val, 6), 1);
  test.Add(SparseVectorView(idx, val, 0), 0);
  ExpectBatchMatchesPerRow(nb, test, "added");
  test.Shuffle(&rng);
  ExpectBatchMatchesPerRow(nb, test, "shuffled");
  ASSERT_TRUE(pruner.MaybeFreeze(&nb, 300));
  ASSERT_GT(pruner.stats().pruned_features, 0u);
  ExpectBatchMatchesPerRow(nb, pruner.CompactDataset(test), "compacted");
}

// --- Learner-specific behaviors -------------------------------------------

TEST(NaiveBayesTest, PriorDominatesWithoutFeatures) {
  NaiveBayesLearner nb;
  SparseVector empty;
  for (int i = 0; i < 20; ++i) nb.Update(V({{0, 1.0}}), 1);
  EXPECT_GT(nb.Score(empty), 0.0);  // prior says positive
  for (int i = 0; i < 60; ++i) nb.Update(V({{1, 1.0}}), 0);
  EXPECT_LT(nb.Score(empty), 0.0);  // prior flipped
}

TEST(NaiveBayesTest, DiscriminativeTokenShiftsScore) {
  NaiveBayesLearner nb;
  for (int i = 0; i < 50; ++i) {
    nb.Update(V({{0, 1.0}}), 1);
    nb.Update(V({{1, 1.0}}), 0);
  }
  EXPECT_GT(nb.Score(V({{0, 1.0}})), 0.0);
  EXPECT_LT(nb.Score(V({{1, 1.0}})), 0.0);
}

TEST(NaiveBayesTest, NegativeFeatureValuesIgnored) {
  NaiveBayesLearner nb;
  nb.Update(V({{0, -5.0}}), 1);
  nb.Update(V({{1, 1.0}}), 0);
  // Feature 0 contributed nothing, so scoring it reflects only priors and
  // smoothing, and must not produce NaN.
  double s = nb.Score(V({{0, 1.0}}));
  EXPECT_FALSE(std::isnan(s));
}

TEST(NaiveBayesTest, UntrainedScoreIsZero) {
  NaiveBayesLearner nb;
  EXPECT_EQ(nb.Score(V({{0, 1.0}})), 0.0);
  EXPECT_DOUBLE_EQ(nb.PredictProbability(V({{0, 1.0}})), 0.5);
}

TEST(LogisticRegressionTest, ProbabilityCalibrationDirection) {
  LogisticRegressionLearner lr;
  for (int i = 0; i < 200; ++i) {
    lr.Update(V({{0, 1.0}}), 1);
    lr.Update(V({{1, 1.0}}), 0);
  }
  EXPECT_GT(lr.PredictProbability(V({{0, 1.0}})), 0.8);
  EXPECT_LT(lr.PredictProbability(V({{1, 1.0}})), 0.2);
}

TEST(LogisticRegressionTest, WeightAccessors) {
  LogisticRegressionLearner lr;
  EXPECT_EQ(lr.WeightAt(0), 0.0);
  for (int i = 0; i < 50; ++i) {
    lr.Update(V({{0, 1.0}}), 1);
    lr.Update(V({{1, 1.0}}), 0);
  }
  EXPECT_GT(lr.WeightAt(0), 0.0);
  EXPECT_LT(lr.WeightAt(1), 0.0);
  EXPECT_EQ(lr.WeightAt(999), 0.0);
}

TEST(PerceptronTest, NoUpdateWhenCorrect) {
  AveragedPerceptronLearner p;
  p.Update(V({{0, 1.0}}), 1);  // first example always a "mistake" (margin 0)
  size_t mistakes = p.num_mistakes();
  // Now that it classifies feature 0 as positive, repeats are correct.
  p.Update(V({{0, 1.0}}), 1);
  p.Update(V({{0, 1.0}}), 1);
  EXPECT_EQ(p.num_mistakes(), mistakes);
  EXPECT_EQ(p.num_updates(), 3u);
}

TEST(PerceptronTest, AveragingSmoothsLateMistakes) {
  AveragedPerceptronLearner p;
  for (int i = 0; i < 100; ++i) {
    p.Update(V({{0, 1.0}}), 1);
    p.Update(V({{1, 1.0}}), 0);
  }
  EXPECT_GT(p.Score(V({{0, 1.0}})), 0.0);
  EXPECT_LT(p.Score(V({{1, 1.0}})), 0.0);
}

TEST(PegasosTest, MarginGrowsWithTraining) {
  PegasosSvmLearner svm;
  for (int i = 0; i < 500; ++i) {
    svm.Update(V({{0, 1.0}}), 1);
    svm.Update(V({{1, 1.0}}), 0);
  }
  EXPECT_GT(svm.Score(V({{0, 1.0}})), 0.0);
  EXPECT_LT(svm.Score(V({{1, 1.0}})), 0.0);
}

TEST(AdaGradTest, LearnsDirectionLikeLogReg) {
  AdaGradLogisticLearner lr;
  for (int i = 0; i < 100; ++i) {
    lr.Update(V({{0, 1.0}}), 1);
    lr.Update(V({{1, 1.0}}), 0);
  }
  EXPECT_GT(lr.WeightAt(0), 0.0);
  EXPECT_LT(lr.WeightAt(1), 0.0);
  EXPECT_GT(lr.PredictProbability(V({{0, 1.0}})), 0.8);
  EXPECT_LT(lr.PredictProbability(V({{1, 1.0}})), 0.2);
}

TEST(AdaGradTest, RareFeatureKeepsLargeSteps) {
  // A feature seen once moves as far as its first step allows; a feature
  // hammered 100 times anneals. Verify the rare feature's weight after one
  // update exceeds the frequent feature's per-update movement at the end.
  AdaGradLogisticLearner lr;
  for (int i = 0; i < 100; ++i) lr.Update(V({{0, 1.0}}), 1);
  double frequent_before = lr.WeightAt(0);
  lr.Update(V({{0, 1.0}}), 1);
  double frequent_step = lr.WeightAt(0) - frequent_before;
  lr.Update(V({{5, 1.0}}), 1);  // first sighting of feature 5
  double rare_step = lr.WeightAt(5);
  EXPECT_GT(rare_step, frequent_step);
}

TEST(AdaGradTest, WeightAtOutOfRangeIsZero) {
  AdaGradLogisticLearner lr;
  EXPECT_EQ(lr.WeightAt(1234), 0.0);
}

TEST(MajorityTest, TracksSeenBalance) {
  MajorityClassLearner m;
  SparseVector x;
  EXPECT_EQ(m.Score(x), 0.0);
  m.Update(x, 1);
  EXPECT_GT(m.Score(x), 0.0);
  m.Update(x, 0);
  m.Update(x, 0);
  EXPECT_LT(m.Score(x), 0.0);
}

TEST(MajorityTest, ExportsNoWeightsAndRefusesCompaction) {
  // The pruner's "unsupported learner" path: no magnitudes, and a refused
  // compaction leaves the model untouched.
  MajorityClassLearner m;
  m.Update(V({{0, 1.0}}), 1);
  std::vector<double> mags;
  EXPECT_FALSE(m.ExportWeightMagnitudes(&mags));
  const double before = m.Score(V({{0, 1.0}}));
  EXPECT_FALSE(m.CompactFeatures({0}, 1));
  EXPECT_EQ(m.Score(V({{0, 1.0}})), before);
  EXPECT_EQ(m.num_updates(), 1u);
}

}  // namespace
}  // namespace zombie
