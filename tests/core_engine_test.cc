#include "core/engine.h"

#include <gtest/gtest.h>

#include <memory>

#include "bandit/epsilon_greedy.h"
#include "bandit/round_robin.h"
#include "core/task_factory.h"
#include "featureeng/extractors.h"
#include "index/kmeans_grouper.h"
#include "ml/logistic_regression.h"
#include "ml/naive_bayes.h"

namespace zombie {
namespace {

struct Fixture {
  Fixture(size_t n = 2000, uint64_t seed = 42)
      : task(MakeTask(TaskKind::kWebCat, n, seed)) {}

  EngineOptions SmallOptions() {
    EngineOptions o;
    o.seed = 7;
    o.holdout_size = 100;
    o.eval_every = 20;
    o.stop.min_items = 100;
    return o;
  }

  GroupingResult Grouping(size_t k = 8) {
    KMeansGrouper grouper(k, 3);
    return grouper.Group(task.corpus);
  }

  Task task;
};

TEST(EngineTest, DeterministicTraceForSeed) {
  Fixture f;
  GroupingResult grouping = f.Grouping();
  ZombieEngine engine(&f.task.corpus, &f.task.pipeline, f.SmallOptions());
  EpsilonGreedyPolicy policy;
  NaiveBayesLearner nb;
  LabelReward reward;
  RunResult a = engine.Run(RunSpec(grouping, policy, nb, reward));
  RunResult b = engine.Run(RunSpec(grouping, policy, nb, reward));
  EXPECT_EQ(a.items_processed, b.items_processed);
  EXPECT_EQ(a.loop_virtual_micros, b.loop_virtual_micros);
  EXPECT_EQ(a.final_quality, b.final_quality);
  ASSERT_EQ(a.curve.size(), b.curve.size());
  for (size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_EQ(a.curve.point(i).quality, b.curve.point(i).quality);
    EXPECT_EQ(a.curve.point(i).virtual_micros,
              b.curve.point(i).virtual_micros);
  }
}

TEST(EngineTest, DifferentSeedsDifferentTraces) {
  Fixture f;
  GroupingResult grouping = f.Grouping();
  EngineOptions o1 = f.SmallOptions();
  EngineOptions o2 = f.SmallOptions();
  o2.seed = 8;
  EpsilonGreedyPolicy policy;
  NaiveBayesLearner nb;
  LabelReward reward;
  RunResult a = ZombieEngine(&f.task.corpus, &f.task.pipeline, o1)
                    .Run(RunSpec(grouping, policy, nb, reward));
  RunResult b = ZombieEngine(&f.task.corpus, &f.task.pipeline, o2)
                    .Run(RunSpec(grouping, policy, nb, reward));
  EXPECT_NE(a.loop_virtual_micros, b.loop_virtual_micros);
}

TEST(EngineTest, BudgetStopRespected) {
  Fixture f;
  EngineOptions opts = f.SmallOptions();
  opts.stop.max_items = 150;
  opts.stop.plateau_enabled = false;
  ZombieEngine engine(&f.task.corpus, &f.task.pipeline, opts);
  EpsilonGreedyPolicy policy;
  NaiveBayesLearner nb;
  LabelReward reward;
  RunResult r = engine.Run(RunSpec(f.Grouping(), policy, nb, reward));
  EXPECT_EQ(r.items_processed, 150u);
  EXPECT_EQ(r.stop_reason, StopReason::kBudget);
}

TEST(EngineTest, ExhaustionProcessesEverythingExceptHoldout) {
  Fixture f(500);
  EngineOptions opts = f.SmallOptions();
  opts.stop.plateau_enabled = false;
  ZombieEngine engine(&f.task.corpus, &f.task.pipeline, opts);
  RoundRobinPolicy policy;
  NaiveBayesLearner nb;
  ZeroReward reward;
  RunResult r = engine.Run(RunSpec(f.Grouping(4), policy, nb, reward));
  EXPECT_EQ(r.stop_reason, StopReason::kExhausted);
  EXPECT_EQ(r.items_processed, 500u - opts.holdout_size);
}

TEST(EngineTest, PlateauStopsBeforeExhaustion) {
  Fixture f(4000);
  ZombieEngine engine(&f.task.corpus, &f.task.pipeline, f.SmallOptions());
  EpsilonGreedyPolicy policy;
  NaiveBayesLearner nb;
  LabelReward reward;
  RunResult r = engine.Run(RunSpec(f.Grouping(16), policy, nb, reward));
  EXPECT_EQ(r.stop_reason, StopReason::kPlateau);
  EXPECT_LT(r.items_processed, 3900u - 100u);
}

TEST(EngineTest, VirtualCostMatchesPipelineFactor) {
  // With round-robin over one ordered group and no early stop, the run
  // featurizes every document once (holdout or loop), so its virtual time
  // must equal the per-item pipeline costs exactly.
  Fixture f(300);
  EngineOptions opts = f.SmallOptions();
  opts.stop.plateau_enabled = false;
  opts.holdout_size = 50;
  ZombieEngine engine(&f.task.corpus, &f.task.pipeline, opts);
  RoundRobinPolicy policy;
  NaiveBayesLearner nb;
  ZeroReward reward;
  GroupingResult single = MakeSingleGroupGrouping(f.task.corpus.size());
  RunSpec spec(single, policy, nb, reward);
  spec.shuffle_groups = false;
  RunResult r = engine.Run(spec);
  EXPECT_EQ(r.items_processed, 250u);
  EXPECT_GT(r.holdout_virtual_micros, 0);
  EXPECT_GT(r.loop_virtual_micros, 0);
  double factor = f.task.pipeline.total_cost_factor();
  int64_t all_docs = 0;
  for (const auto& d : f.task.corpus.documents()) {
    all_docs += f.task.pipeline.ExtractionCostMicros(d) +
                d.labeling_cost_micros;
  }
  EXPECT_EQ(r.total_virtual_micros(), all_docs);
  EXPECT_GT(factor, 0.0);
}

TEST(EngineTest, HoldoutChargedWhenEnabled) {
  Fixture f(400);
  EngineOptions opts = f.SmallOptions();
  ZombieEngine engine(&f.task.corpus, &f.task.pipeline, opts);
  EpsilonGreedyPolicy policy;
  NaiveBayesLearner nb;
  LabelReward reward;
  RunResult r = engine.Run(RunSpec(f.Grouping(), policy, nb, reward));
  EXPECT_GT(r.holdout_virtual_micros, 0);
  EXPECT_EQ(r.total_virtual_micros(),
            r.loop_virtual_micros + r.holdout_virtual_micros);
}

TEST(EngineTest, StratifiedHoldoutHitsTargetFraction) {
  Fixture f(4000);
  EngineOptions opts = f.SmallOptions();
  opts.holdout_size = 200;
  opts.stop.max_items = 50;
  opts.stop.plateau_enabled = false;
  ZombieEngine engine(&f.task.corpus, &f.task.pipeline, opts);
  EpsilonGreedyPolicy policy;
  NaiveBayesLearner nb;
  LabelReward reward;
  RunResult r = engine.Run(RunSpec(f.Grouping(), policy, nb, reward));
  // The holdout composition is visible through the curve's confusion
  // totals: tp+fn = positives in holdout.
  const CurvePoint& p = r.curve.point(0);
  int64_t holdout_pos = p.metrics.confusion.tp + p.metrics.confusion.fn;
  EXPECT_EQ(p.metrics.confusion.total(), 200);
  EXPECT_EQ(holdout_pos, 50);
}

TEST(EngineTest, ArmSummariesConsistent) {
  Fixture f;
  ZombieEngine engine(&f.task.corpus, &f.task.pipeline, f.SmallOptions());
  EpsilonGreedyPolicy policy;
  NaiveBayesLearner nb;
  LabelReward reward;
  GroupingResult grouping = f.Grouping(8);
  RunResult r = engine.Run(RunSpec(grouping, policy, nb, reward));
  ASSERT_EQ(r.arms.size(), grouping.num_groups());
  size_t total_pulls = 0;
  size_t total_pos = 0;
  for (size_t a = 0; a < r.arms.size(); ++a) {
    total_pulls += r.arms[a].pulls;
    total_pos += r.arms[a].positives_seen;
    EXPECT_EQ(r.arms[a].group_size, grouping.groups[a].size());
    EXPECT_LE(r.arms[a].positives_seen, r.arms[a].pulls);
  }
  EXPECT_EQ(total_pulls, r.items_processed);
  EXPECT_EQ(total_pos, r.positives_processed);
}

TEST(EngineTest, CurveStartsAtZeroItemsAndEndsAtFinal) {
  Fixture f;
  ZombieEngine engine(&f.task.corpus, &f.task.pipeline, f.SmallOptions());
  EpsilonGreedyPolicy policy;
  NaiveBayesLearner nb;
  LabelReward reward;
  RunResult r = engine.Run(RunSpec(f.Grouping(), policy, nb, reward));
  ASSERT_GE(r.curve.size(), 2u);
  EXPECT_EQ(r.curve.point(0).items_processed, 0u);
  EXPECT_EQ(r.curve.point(r.curve.size() - 1).items_processed,
            r.items_processed);
  EXPECT_DOUBLE_EQ(r.curve.FinalQuality(), r.final_quality);
}

TEST(EngineTest, ProbeRewardRuns) {
  Fixture f(1000);
  EngineOptions opts = f.SmallOptions();
  opts.stop.max_items = 120;
  opts.stop.plateau_enabled = false;
  ZombieEngine engine(&f.task.corpus, &f.task.pipeline, opts);
  EpsilonGreedyPolicy policy;
  NaiveBayesLearner nb;
  ImprovementReward reward;
  RunResult r = engine.Run(RunSpec(f.Grouping(), policy, nb, reward));
  EXPECT_EQ(r.reward_name, "improvement");
  EXPECT_EQ(r.items_processed, 120u);
}

TEST(EngineTest, MetadataInResultNames) {
  Fixture f;
  ZombieEngine engine(&f.task.corpus, &f.task.pipeline, f.SmallOptions());
  EpsilonGreedyPolicy policy;
  NaiveBayesLearner nb;
  LabelReward reward;
  GroupingResult g = f.Grouping();
  RunResult r = engine.Run(RunSpec(g, policy, nb, reward));
  EXPECT_EQ(r.grouper_name, g.method);
  EXPECT_EQ(r.learner_name, "nb");
  EXPECT_EQ(r.reward_name, "label");
  EXPECT_NE(r.policy_name.find("egreedy"), std::string::npos);
  EXPECT_FALSE(r.ToString().empty());
}

TEST(EngineTest, DeclineRuleStopsDriftingRuns) {
  // Construct a run whose quality inevitably decays: after the rich
  // groups drain, the label-reward stream turns all-negative and a
  // recency-sensitive learner drifts. With plateau disabled, only the
  // decline rule can stop it before exhaustion. On this fixture it does,
  // with the fixed rule (12 evaluations more than 0.08 below the peak).
  Fixture f(3000);
  EngineOptions opts = f.SmallOptions();
  opts.stop.plateau_enabled = false;
  opts.stop.decline_enabled = true;
  ZombieEngine engine(&f.task.corpus, &f.task.pipeline, opts);
  EpsilonGreedyPolicy policy;
  LogisticRegressionLearner lr;
  LabelReward reward;
  RunResult r = engine.Run(RunSpec(f.Grouping(16), policy, lr, reward));
  ASSERT_EQ(r.stop_reason, StopReason::kDecline);
  // The peak sits more than the margin above where the run stopped, and
  // the stop came well before the corpus drained.
  EXPECT_GT(r.curve.PeakQuality(), r.final_quality + 0.08);
  EXPECT_LT(r.items_processed, 2900u - 100u);
}

TEST(EngineTest, DeclineDisabledRunsToExhaustion) {
  Fixture f(800);
  EngineOptions opts = f.SmallOptions();
  opts.stop.plateau_enabled = false;
  opts.stop.decline_enabled = false;
  ZombieEngine engine(&f.task.corpus, &f.task.pipeline, opts);
  EpsilonGreedyPolicy policy;
  LogisticRegressionLearner lr;
  LabelReward reward;
  RunResult r = engine.Run(RunSpec(f.Grouping(8), policy, lr, reward));
  EXPECT_EQ(r.stop_reason, StopReason::kExhausted);
}

TEST(EngineTest, TunedThresholdQualityAtLeastZeroThreshold) {
  Fixture f(1500);
  EngineOptions opts = f.SmallOptions();
  opts.stop.max_items = 200;
  opts.stop.plateau_enabled = false;
  EpsilonGreedyPolicy policy;
  NaiveBayesLearner nb;
  LabelReward reward;
  GroupingResult grouping = f.Grouping();
  opts.tune_threshold = false;
  RunResult plain = ZombieEngine(&f.task.corpus, &f.task.pipeline, opts)
                        .Run(RunSpec(grouping, policy, nb, reward));
  opts.tune_threshold = true;
  RunResult tuned = ZombieEngine(&f.task.corpus, &f.task.pipeline, opts)
                        .Run(RunSpec(grouping, policy, nb, reward));
  // Same trace (seeded identically), but every evaluation picks the best
  // threshold, so quality can only improve.
  EXPECT_EQ(plain.items_processed, tuned.items_processed);
  EXPECT_GE(tuned.final_quality, plain.final_quality);
}

TEST(EngineTest, WarmStartBiasesEarlySelection) {
  Fixture f(3000);
  EngineOptions opts = f.SmallOptions();
  opts.stop.max_items = 120;
  opts.stop.plateau_enabled = false;
  EpsilonGreedyPolicy policy;
  NaiveBayesLearner nb;
  LabelReward reward;
  GroupingResult grouping = f.Grouping(8);

  // Cold run discovers the rich arms.
  ZombieEngine engine(&f.task.corpus, &f.task.pipeline, opts);
  RunResult cold = engine.Run(RunSpec(grouping, policy, nb, reward));

  // Warm run is seeded with the cold run's arm knowledge and must find
  // at least as many positives early.
  RunSpec warm_spec(grouping, policy, nb, reward);
  warm_spec.warm_start = &cold.arms;
  RunResult warm = engine.Run(warm_spec);
  EXPECT_GE(warm.positives_processed + 5, cold.positives_processed);
  // Arm accounting excludes pseudo-observations.
  size_t total_pulls = 0;
  for (const auto& a : warm.arms) total_pulls += a.pulls;
  EXPECT_EQ(total_pulls, warm.items_processed);
}

TEST(EngineTest, WarmStartWithWrongArmCountIsIgnored) {
  Fixture f(1000);
  EngineOptions opts = f.SmallOptions();
  opts.stop.max_items = 60;
  opts.stop.plateau_enabled = false;
  EpsilonGreedyPolicy policy;
  NaiveBayesLearner nb;
  LabelReward reward;
  GroupingResult grouping = f.Grouping(8);
  std::vector<ArmSummary> wrong(3);  // mismatched arm count
  for (auto& a : wrong) {
    a.pulls = 10;
    a.total_reward = 10.0;  // would heavily bias selection if applied
  }
  ZombieEngine engine(&f.task.corpus, &f.task.pipeline, opts);
  RunSpec mismatched(grouping, policy, nb, reward);
  mismatched.warm_start = &wrong;
  RunResult r = engine.Run(mismatched);
  EXPECT_EQ(r.items_processed, 60u);

  // The contract is "ignored", not "degraded": the run must be identical
  // to one with no warm start at all — same selections, same rewards,
  // same curve.
  RunResult plain = engine.Run(RunSpec(grouping, policy, nb, reward));
  EXPECT_EQ(r.items_processed, plain.items_processed);
  EXPECT_EQ(r.positives_processed, plain.positives_processed);
  EXPECT_EQ(r.loop_virtual_micros, plain.loop_virtual_micros);
  EXPECT_EQ(r.final_quality, plain.final_quality);
  ASSERT_EQ(r.arms.size(), plain.arms.size());
  for (size_t a = 0; a < r.arms.size(); ++a) {
    EXPECT_EQ(r.arms[a].pulls, plain.arms[a].pulls);
    EXPECT_EQ(r.arms[a].total_reward, plain.arms[a].total_reward);
    EXPECT_EQ(r.arms[a].positives_seen, plain.arms[a].positives_seen);
  }
}

TEST(EngineTest, RepeatedRunSpecCallsAreIdentical) {
  // Run(const RunSpec&) is the engine's only entry point (the positional
  // overload it once shimmed is gone — see tests/compile_fail/
  // fail_positional_run.cc, which keeps it from coming back). The engine
  // is stateless across calls: the same spec twice must produce the same
  // run, field for field.
  Fixture f(1000);
  EngineOptions opts = f.SmallOptions();
  opts.stop.max_items = 80;
  opts.stop.plateau_enabled = false;
  GroupingResult grouping = f.Grouping(6);
  ZombieEngine engine(&f.task.corpus, &f.task.pipeline, opts);
  EpsilonGreedyPolicy policy;
  NaiveBayesLearner nb;
  LabelReward reward;
  RunSpec spec(grouping, policy, nb, reward);
  RunResult first = engine.Run(spec);
  RunResult again = engine.Run(spec);
  EXPECT_EQ(first.Fingerprint(), again.Fingerprint());
  EXPECT_EQ(first.items_processed, again.items_processed);
  EXPECT_EQ(first.positives_processed, again.positives_processed);
  EXPECT_EQ(first.loop_virtual_micros, again.loop_virtual_micros);
  EXPECT_EQ(first.holdout_virtual_micros, again.holdout_virtual_micros);
  EXPECT_EQ(first.final_quality, again.final_quality);
  ASSERT_EQ(first.curve.size(), again.curve.size());
  for (size_t i = 0; i < first.curve.size(); ++i) {
    EXPECT_EQ(first.curve.point(i).quality, again.curve.point(i).quality);
  }
}

TEST(EngineTest, CostAwareRewardsPreferCheapGroups) {
  // Two groups with identical labels but 4x different extraction costs:
  // cost-aware selection must spend more pulls on the cheap group.
  Corpus corpus;
  corpus.mutable_vocabulary().GetOrAdd("t");
  corpus.AddDomain("d");
  // The cheap group is deliberately the SECOND arm: ε-greedy breaks ties
  // toward the first arm, so cost-aware selection must overcome that bias
  // to win this test.
  for (int i = 0; i < 600; ++i) {
    Document d;
    d.id = static_cast<uint64_t>(i);
    d.tokens = {0};
    d.label = 1;  // all positive: reward 1 everywhere pre-normalization
    d.extraction_cost_micros = i < 300 ? 4000 : 1000;
    corpus.AddDocument(std::move(d));
  }
  FeaturePipeline pipeline("p");
  pipeline.Add(std::make_unique<HashedBagOfWordsExtractor>(16));

  GroupingResult grouping;
  grouping.method = "cost-split";
  grouping.groups.resize(2);
  for (uint32_t i = 0; i < 600; ++i) {
    grouping.groups[i < 300 ? 0 : 1].push_back(i);
  }

  EngineOptions opts;
  opts.seed = 5;
  opts.holdout_size = 50;
  opts.eval_every = 50;
  opts.stop.max_items = 200;
  opts.stop.plateau_enabled = false;
  opts.stop.decline_enabled = false;
  opts.cost_aware_rewards = true;
  ZombieEngine engine(&corpus, &pipeline, opts);
  EpsilonGreedyPolicy policy;
  NaiveBayesLearner nb;
  LabelReward reward;
  RunResult r = engine.Run(RunSpec(grouping, policy, nb, reward));
  ASSERT_EQ(r.arms.size(), 2u);
  EXPECT_GT(r.arms[1].pulls, 2 * r.arms[0].pulls);

  // Without cost awareness, rewards are identical and the greedy
  // tie-break favors the first (expensive) arm: the preference flips.
  opts.cost_aware_rewards = false;
  ZombieEngine plain(&corpus, &pipeline, opts);
  RunResult p = plain.Run(RunSpec(grouping, policy, nb, reward));
  EXPECT_GE(p.arms[0].pulls, p.arms[1].pulls);
}

TEST(EngineOptionsTest, ValidateRejectsBadKnobs) {
  EngineOptions o;
  o.eval_every = 0;
  EXPECT_FALSE(o.Validate().ok());
  o = EngineOptions();
  o.holdout_size = 0;
  EXPECT_FALSE(o.Validate().ok());
  o = EngineOptions();
  o.probe_size = o.holdout_size + 1;
  EXPECT_FALSE(o.Validate().ok());
  o = EngineOptions();
  o.stop.max_items = 0;
  EXPECT_FALSE(o.Validate().ok());
  EXPECT_TRUE(EngineOptions().Validate().ok());
}

TEST(EngineDeathTest, EmptyCorpusAborts) {
  Corpus empty;
  FeaturePipeline pipeline("p");
  EXPECT_DEATH(ZombieEngine(&empty, &pipeline), "empty corpus");
}

TEST(SingleGroupGroupingTest, CoversInOrder) {
  GroupingResult g = MakeSingleGroupGrouping(5);
  ASSERT_EQ(g.num_groups(), 1u);
  EXPECT_EQ(g.groups[0], (std::vector<uint32_t>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(g.Validate(5).ok());
}

}  // namespace
}  // namespace zombie
