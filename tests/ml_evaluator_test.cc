#include "ml/evaluator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

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

// Every entry's slot names its own feature id, every slot is used, and
// distinct ids never share one.
void ExpectSlotsConsistent(const Dataset& d) {
  std::vector<bool> used(d.slot_ids().size(), false);
  for (size_t r = 0; r < d.size(); ++r) {
    const SparseVectorView x = d.example(r).x;
    const uint32_t* slots = d.row_slots(r);
    for (size_t i = 0; i < x.num_nonzero(); ++i) {
      ASSERT_LT(slots[i], d.slot_ids().size());
      EXPECT_EQ(d.slot_ids()[slots[i]], x.index_at(i));
      used[slots[i]] = true;
    }
  }
  for (size_t s = 0; s < d.slot_ids().size(); ++s) EXPECT_TRUE(used[s]) << s;
  std::vector<uint32_t> ids = d.slot_ids();
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
}

TEST(DatasetTest, SlotsFollowFirstAppearanceAndSurviveShuffle) {
  Dataset d;
  d.Add(V({{7, 1.0}, {4000000000u, 2.0}}), 1);
  d.Add(V({}), 0);
  d.Add(V({{3, 1.0}, {7, -1.0}}), 0);
  EXPECT_EQ(d.slot_ids().size(), 3u);
  EXPECT_EQ(d.slot_ids(), (std::vector<uint32_t>{7, 4000000000u, 3}));
  EXPECT_EQ(d.row_slots(2)[0], 2u);
  EXPECT_EQ(d.row_slots(2)[1], 0u);
  ExpectSlotsConsistent(d);

  // Enough ids to grow the slot table several times.
  Rng rng(5);
  for (int r = 0; r < 300; ++r) {
    std::vector<std::pair<uint32_t, double>> pairs;
    for (int k = 0; k < 20; ++k) {
      pairs.emplace_back(static_cast<uint32_t>(rng.NextUint64()) % 5000,
                         1.0);
    }
    d.Add(V(std::move(pairs)), r % 2);
  }
  ExpectSlotsConsistent(d);
  const size_t slots = d.slot_ids().size();
  d.Shuffle(&rng);
  EXPECT_EQ(d.slot_ids().size(), slots);
  ExpectSlotsConsistent(d);
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
