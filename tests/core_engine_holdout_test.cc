// The holdout: the stratified sampler every run draws it with, and the
// evaluation accounting (the engine times each periodic holdout scoring
// pass into the engine.holdout_eval_us histogram, one sample per
// evaluation).

#include <vector>

#include "bandit/epsilon_greedy.h"
#include "core/engine.h"
#include "core/reward.h"
#include "core/task_factory.h"
#include "data/corpus.h"
#include "gtest/gtest.h"
#include "index/kmeans_grouper.h"
#include "ml/naive_bayes.h"
#include "obs/obs.h"

namespace zombie {
namespace {

Corpus CorpusWithLabels(const std::vector<int32_t>& labels) {
  Corpus corpus;
  for (int32_t label : labels) {
    Document doc;
    doc.label = label;
    corpus.AddDocument(std::move(doc));
  }
  return corpus;
}

size_t CountPositives(const Corpus& corpus,
                      const std::vector<uint32_t>& ids) {
  size_t positives = 0;
  for (uint32_t id : ids) positives += corpus.doc(id).label == 1;
  return positives;
}

// The expected ids pin the draw itself: changing them changes every run's
// holdout, and so every fingerprint.

TEST(HoldoutSamplerTest, CapsPositivesAtHalfOfThePrefix) {
  // Positives at every 5th id; the base prefix [0, 32) holds 7 of them.
  // The 25% share of 20 asks for 5, but the cap leaves 7 / 2 = 3 to
  // training's benefit.
  std::vector<int32_t> labels(40, 0);
  for (size_t i = 0; i < labels.size(); i += 5) labels[i] = 1;
  Corpus corpus = CorpusWithLabels(labels);
  std::vector<uint32_t> ids = SampleStratifiedHoldout(corpus, 32, 20, Rng(7));
  EXPECT_EQ(ids, (std::vector<uint32_t>{7, 8, 22, 14, 29, 27, 5, 25, 0, 3,
                                        1, 11, 23, 24, 12, 13, 17, 19, 9,
                                        4}));
  EXPECT_EQ(CountPositives(corpus, ids), 3u);
  for (uint32_t id : ids) EXPECT_LT(id, 32u) << "outside the base prefix";
}

TEST(HoldoutSamplerTest, FillsFromLeftoversWhenAClassRunsShort) {
  // Four negatives (ids 3, 8, 13, 18) cannot fill the 8 negative slots of
  // a 10-item holdout: every negative is taken, and positives skipped on
  // the walk fill the rest in shuffled order.
  std::vector<int32_t> labels(20, 1);
  for (size_t i = 3; i < labels.size(); i += 5) labels[i] = 0;
  Corpus corpus = CorpusWithLabels(labels);
  std::vector<uint32_t> ids = SampleStratifiedHoldout(corpus, 20, 10, Rng(11));
  EXPECT_EQ(ids,
            (std::vector<uint32_t>{10, 4, 3, 8, 18, 13, 12, 16, 5, 2}));
  EXPECT_EQ(CountPositives(corpus, ids), 6u);
}

TEST(HoldoutSamplerTest, ZeroPositivesGivesAnAllNegativeHoldout) {
  Corpus corpus = CorpusWithLabels(std::vector<int32_t>(30, 0));
  std::vector<uint32_t> ids = SampleStratifiedHoldout(corpus, 30, 10, Rng(13));
  EXPECT_EQ(ids,
            (std::vector<uint32_t>{10, 8, 11, 12, 2, 20, 7, 16, 15, 27}));
}

TEST(EngineHoldoutTest, HoldoutEvalHistogramRecordsEvals) {
  Task task = MakeTask(TaskKind::kWebCat, 900, 42);
  KMeansGrouper grouper(6, 7);
  GroupingResult grouping = grouper.Group(task.corpus);
  EngineOptions opts;
  opts.seed = 3;
  opts.holdout_size = 300;
  opts.eval_every = 10;
  opts.stop.max_items = 150;
  ObsContext obs;
  opts.obs = &obs;
  EpsilonGreedyPolicy policy;
  NaiveBayesLearner learner;
  LabelReward reward;
  ZombieEngine engine(&task.corpus, &task.pipeline, opts);
  engine.Run(RunSpec(grouping, policy, learner, reward));
  HistogramSnapshot evals =
      obs.metrics()->GetHistogram("engine.holdout_eval_us")->Snapshot();
  // Exactly one sample per evaluation: the final metrics are the last
  // curve point's, not a second scoring pass after the loop.
  EXPECT_EQ(evals.count, obs.metrics()->GetCounter("engine.evals")->value());
  EXPECT_GT(evals.count, 1u);
}

}  // namespace
}  // namespace zombie
