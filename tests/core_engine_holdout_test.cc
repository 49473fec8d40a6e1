// Parallel holdout evaluation determinism: the engine's periodic holdout
// scoring may fan out across an internal thread pool, but the contract is
// byte-identical results at any thread count — fixed shards accumulate into
// disjoint slots and are reduced serially in shard order, so the FP addition
// sequence never depends on scheduling. These tests pin that contract for
// RunResult and for the DecisionLog JSONL stream (which records the
// quality estimates the holdout produces). They also run under the ASan
// and TSan CI legs, where a racing shard would be caught directly.

#include <string>

#include "bandit/epsilon_greedy.h"
#include "core/engine.h"
#include "core/reward.h"
#include "core/task_factory.h"
#include "gtest/gtest.h"
#include "index/kmeans_grouper.h"
#include "ml/naive_bayes.h"
#include "obs/obs.h"
#include "util/string_util.h"

namespace zombie {
namespace {

/// Every deterministic RunResult field; wall_micros deliberately excluded.
std::string Fingerprint(const RunResult& r) {
  std::string s = StrFormat(
      "items=%zu loop=%lld holdout=%lld q=%.17g stop=%s pos=%zu\n",
      r.items_processed, static_cast<long long>(r.loop_virtual_micros),
      static_cast<long long>(r.holdout_virtual_micros), r.final_quality,
      StopReasonName(r.stop_reason), r.positives_processed);
  for (const ArmSummary& a : r.arms) {
    s += StrFormat("arm %zu %zu %.17g %zu\n", a.group_size, a.pulls,
                   a.total_reward, a.positives_seen);
  }
  s += r.curve.ToCsv();
  return s;
}

class EngineHoldoutTest : public ::testing::Test {
 protected:
  EngineHoldoutTest()
      : task_(MakeTask(TaskKind::kWebCat, 900, 42)),
        grouper_(6, 7),
        grouping_(grouper_.Group(task_.corpus)) {
    opts_.seed = 3;
    // A holdout spanning several 128-item shards, evaluated often, so the
    // parallel path does real sharded work many times per run.
    opts_.holdout_size = 300;
    opts_.eval_every = 10;
    opts_.stop.max_items = 150;
  }

  struct Outcome {
    std::string fingerprint;
    std::string decisions_jsonl;
  };

  Outcome RunWithThreads(size_t threads) {
    EngineOptions opts = opts_;
    opts.holdout_eval_threads = threads;
    ObsContext obs;
    opts.obs = &obs;
    EpsilonGreedyPolicy policy;
    NaiveBayesLearner learner;
    LabelReward reward;
    ZombieEngine engine(&task_.corpus, &task_.pipeline, opts);
    RunResult r = engine.Run(RunSpec(grouping_, policy, learner, reward));
    return {Fingerprint(r), obs.decisions()->ToJsonl()};
  }

  Task task_;
  KMeansGrouper grouper_;
  GroupingResult grouping_;
  EngineOptions opts_;
};

TEST_F(EngineHoldoutTest, RunResultByteIdenticalAcrossThreadCounts) {
  Outcome serial = RunWithThreads(1);
  for (size_t threads : {2u, 4u}) {
    Outcome parallel = RunWithThreads(threads);
    EXPECT_EQ(parallel.fingerprint, serial.fingerprint)
        << "holdout_eval_threads=" << threads << " changed the run";
  }
}

TEST_F(EngineHoldoutTest, DecisionLogJsonlByteIdenticalAcrossThreadCounts) {
  Outcome serial = RunWithThreads(1);
  ASSERT_FALSE(serial.decisions_jsonl.empty());
  Outcome parallel = RunWithThreads(4);
  EXPECT_EQ(parallel.decisions_jsonl, serial.decisions_jsonl);
}

TEST_F(EngineHoldoutTest, HoldoutEvalHistogramRecordsEvals) {
  EngineOptions opts = opts_;
  opts.holdout_eval_threads = 4;
  ObsContext obs;
  opts.obs = &obs;
  EpsilonGreedyPolicy policy;
  NaiveBayesLearner learner;
  LabelReward reward;
  ZombieEngine engine(&task_.corpus, &task_.pipeline, opts);
  engine.Run(RunSpec(grouping_, policy, learner, reward));
  HistogramSnapshot evals =
      obs.metrics()->GetHistogram("engine.holdout_eval_us")->Snapshot();
  // Exactly one sample per evaluation: the final metrics are the last
  // curve point's, not a second scoring pass after the loop.
  EXPECT_EQ(evals.count, obs.metrics()->GetCounter("engine.evals")->value());
  EXPECT_GT(evals.count, 1u);
}

TEST_F(EngineHoldoutTest, ThreadCountBeyondHoldoutShardsIsHarmless) {
  // More threads than 128-item shards (300 items -> 3 shards) must not
  // misbehave or diverge.
  Outcome serial = RunWithThreads(1);
  Outcome oversubscribed = RunWithThreads(16);
  EXPECT_EQ(oversubscribed.fingerprint, serial.fingerprint);
}

}  // namespace
}  // namespace zombie
