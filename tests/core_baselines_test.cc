#include "core/baselines.h"

#include <gtest/gtest.h>

#include "core/task_factory.h"
#include "ml/naive_bayes.h"

namespace zombie {
namespace {

struct Fixture {
  Fixture() : task(MakeTask(TaskKind::kWebCat, 800, 5)) {}

  EngineOptions Options() {
    EngineOptions o;
    o.seed = 3;
    o.holdout_size = 100;
    o.eval_every = 25;
    return o;
  }

  Task task;
};

TEST(BaselinesTest, FullScanOptionsDisableEarlyStops) {
  EngineOptions o;
  o.stop.plateau_enabled = true;
  o.stop.decline_enabled = true;
  EngineOptions full = FullScanOptions(o);
  EXPECT_FALSE(full.stop.plateau_enabled);
  EXPECT_FALSE(full.stop.decline_enabled);
}

TEST(BaselinesTest, SequentialScanIsExhaustiveAndNamed) {
  Fixture f;
  ZombieEngine engine(&f.task.corpus, &f.task.pipeline,
                      FullScanOptions(f.Options()));
  NaiveBayesLearner nb;
  RunResult r = RunSequentialBaseline(engine, nb);
  EXPECT_EQ(r.stop_reason, StopReason::kExhausted);
  EXPECT_EQ(r.items_processed, 700u);  // corpus minus holdout
  EXPECT_EQ(r.policy_name, "sequential");
  EXPECT_EQ(r.grouper_name, "sequential");
}

TEST(BaselinesTest, RandomScanIsExhaustive) {
  Fixture f;
  ZombieEngine engine(&f.task.corpus, &f.task.pipeline,
                      FullScanOptions(f.Options()));
  NaiveBayesLearner nb;
  RunResult r = RunRandomBaseline(engine, nb);
  EXPECT_EQ(r.stop_reason, StopReason::kExhausted);
  EXPECT_EQ(r.items_processed, 700u);
  EXPECT_EQ(r.policy_name, "randomscan");
}

TEST(BaselinesTest, SequentialAndRandomDifferInTrajectory) {
  Fixture f;
  ZombieEngine engine(&f.task.corpus, &f.task.pipeline,
                      FullScanOptions(f.Options()));
  NaiveBayesLearner nb;
  RunResult seq = RunSequentialBaseline(engine, nb);
  RunResult rnd = RunRandomBaseline(engine, nb);
  // Same totals (all items processed), different order -> the virtual
  // clock accumulates differently at intermediate evaluations (per-item
  // costs vary), even if the coarse quality values happen to coincide.
  EXPECT_EQ(seq.items_processed, rnd.items_processed);
  bool any_diff = false;
  for (size_t i = 1; i + 1 < std::min(seq.curve.size(), rnd.curve.size());
       ++i) {
    any_diff |= seq.curve.point(i).virtual_micros !=
                rnd.curve.point(i).virtual_micros;
  }
  EXPECT_TRUE(any_diff);
}

TEST(BaselinesTest, BaselinesRespectEarlyStopWhenEnabled) {
  Fixture f;
  EngineOptions o = f.Options();
  o.stop.plateau_enabled = true;
  o.stop.min_items = 100;
  ZombieEngine engine(&f.task.corpus, &f.task.pipeline, o);
  NaiveBayesLearner nb;
  RunResult r = RunRandomBaseline(engine, nb);
  // Either it plateaued early or it drained the corpus; both are legal,
  // but the run must never exceed the corpus.
  EXPECT_LE(r.items_processed, 700u);
}

TEST(BaselinesTest, FixedSampleBaselineRespectsBudget) {
  Fixture f;
  ZombieEngine engine(&f.task.corpus, &f.task.pipeline, f.Options());
  NaiveBayesLearner nb;
  RunResult r = RunFixedSampleBaseline(engine, nb, 150);
  EXPECT_EQ(r.items_processed, 150u);
  EXPECT_EQ(r.stop_reason, StopReason::kBudget);
  EXPECT_EQ(r.policy_name, "fixedsample");
}

TEST(BaselinesTest, FixedSampleLargerThanCorpusExhausts) {
  Fixture f;
  ZombieEngine engine(&f.task.corpus, &f.task.pipeline, f.Options());
  NaiveBayesLearner nb;
  RunResult r = RunFixedSampleBaseline(engine, nb, 100000);
  EXPECT_EQ(r.stop_reason, StopReason::kExhausted);
  EXPECT_EQ(r.items_processed, 700u);
}

TEST(BaselinesTest, LargerSamplesLearnAtLeastAsWell) {
  Fixture f;
  ZombieEngine engine(&f.task.corpus, &f.task.pipeline, f.Options());
  NaiveBayesLearner nb;
  RunResult small = RunFixedSampleBaseline(engine, nb, 50);
  RunResult large = RunFixedSampleBaseline(engine, nb, 700);
  EXPECT_GE(large.final_quality + 0.05, small.final_quality);
}

TEST(BaselinesTest, DeterministicBaselines) {
  Fixture f;
  ZombieEngine engine(&f.task.corpus, &f.task.pipeline,
                      FullScanOptions(f.Options()));
  NaiveBayesLearner nb;
  RunResult a = RunRandomBaseline(engine, nb);
  RunResult b = RunRandomBaseline(engine, nb);
  EXPECT_EQ(a.final_quality, b.final_quality);
  EXPECT_EQ(a.loop_virtual_micros, b.loop_virtual_micros);
}

}  // namespace
}  // namespace zombie
