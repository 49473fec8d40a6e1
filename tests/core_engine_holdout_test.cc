// Holdout evaluation accounting: the engine times each periodic holdout
// scoring pass into the engine.holdout_eval_us histogram, one sample per
// evaluation.

#include "bandit/epsilon_greedy.h"
#include "core/engine.h"
#include "core/reward.h"
#include "core/task_factory.h"
#include "gtest/gtest.h"
#include "index/kmeans_grouper.h"
#include "ml/naive_bayes.h"
#include "obs/obs.h"

namespace zombie {
namespace {

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
