// Online feature pruning engine contract (ml/feature_pruner.h + engine.cc):
//  - pruning disabled (the default) is a perfect no-op — RunResult
//    fingerprint and DecisionLog JSONL byte-identical to the no-pruner
//    engine, no prune records, no prune metrics;
//  - pruning enabled derives the mask from virtual-time-visible state only,
//    so the run is byte-identical across cache on/off (a wall-clock-only
//    knob);
//  - the freeze lands exactly once, at a holdout-eval boundary at or after
//    freeze_after_items, and is recorded consistently in the DecisionLog,
//    the prune.* metrics, and the engine's actual dimension compaction;
//  - a learner with no per-feature weights (majority class) disables the
//    pruner into a byte-identical no-op rather than guessing.

#include <cstdint>
#include <string>
#include <vector>

#include "bandit/epsilon_greedy.h"
#include "core/engine.h"
#include "core/reward.h"
#include "core/task_factory.h"
#include "featureeng/extraction_service.h"
#include "featureeng/feature_cache.h"
#include "gtest/gtest.h"
#include "index/kmeans_grouper.h"
#include "ml/feature_pruner.h"
#include "ml/majority.h"
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

class EnginePruneTest : public ::testing::Test {
 protected:
  EnginePruneTest()
      : task_(MakeTask(TaskKind::kWebCat, 900, 42)),
        grouper_(6, 7),
        grouping_(grouper_.Group(task_.corpus)) {}

  struct Outcome {
    std::string fingerprint;
    std::string decisions_jsonl;
    uint64_t freezes = 0;
    uint64_t frozen_at_items = 0;
    uint64_t input_dimension = 0;
    uint64_t kept_features = 0;
    uint64_t pruned_features = 0;
  };

  Outcome RunWith(const FeaturePrunerOptions& pruning,
                  const Learner& learner, bool use_cache = true) {
    // Fresh cache per run: every configuration starts cold, so only the
    // pruning itself differs between runs.
    FeatureCache cache;
    EngineOptions opts;
    opts.seed = 3;
    opts.holdout_size = 150;
    opts.eval_every = 10;
    opts.stop.max_items = 200;
    opts.pruning = pruning;
    ObsContext obs;
    opts.obs = &obs;

    EpsilonGreedyPolicy policy;
    LabelReward reward;
    ExtractionService service(&task_.pipeline, use_cache ? &cache : nullptr);
    ZombieEngine engine(&task_.corpus, &service, opts);
    RunResult r = engine.Run(RunSpec(grouping_, policy, learner, reward));

    Outcome out;
    out.fingerprint = Fingerprint(r);
    out.decisions_jsonl = obs.decisions()->ToJsonl();
    out.freezes =
        static_cast<uint64_t>(obs.metrics()->GetCounter("prune.freezes")
                                  ->value());
    out.frozen_at_items = static_cast<uint64_t>(
        obs.metrics()->GetGauge("prune.frozen_at_items")->value());
    out.input_dimension = static_cast<uint64_t>(
        obs.metrics()->GetGauge("prune.input_dimension")->value());
    out.kept_features = static_cast<uint64_t>(
        obs.metrics()->GetGauge("prune.kept_features")->value());
    out.pruned_features = static_cast<uint64_t>(
        obs.metrics()->GetGauge("prune.pruned_features")->value());
    return out;
  }

  Task task_;
  KMeansGrouper grouper_;
  GroupingResult grouping_;
};

TEST_F(EnginePruneTest, DisabledPruningIsByteIdenticalNoOp) {
  NaiveBayesLearner nb;
  Outcome off = RunWith(FeaturePrunerOptions{}, nb);
  EXPECT_EQ(off.freezes, 0u);
  EXPECT_EQ(off.decisions_jsonl.find("\"kind\": \"prune\""),
            std::string::npos);

  // An explicitly disabled preset must be a perfect no-op, not merely a
  // near miss.
  FeaturePrunerOptions disabled = ConservativePruning();
  disabled.enabled = false;
  Outcome run = RunWith(disabled, nb);
  EXPECT_EQ(run.fingerprint, off.fingerprint);
  EXPECT_EQ(run.decisions_jsonl, off.decisions_jsonl);
  EXPECT_EQ(run.freezes, 0u);
}

TEST_F(EnginePruneTest, PrunedRunByteIdenticalAcrossWallClockKnobs) {
  NaiveBayesLearner nb;
  const FeaturePrunerOptions conservative = ConservativePruning();
  Outcome base = RunWith(conservative, nb, /*use_cache=*/true);
  // Non-vacuity: the mask really froze and really pruned.
  ASSERT_EQ(base.freezes, 1u);
  EXPECT_GT(base.pruned_features, 0u);
  EXPECT_EQ(base.kept_features + base.pruned_features, base.input_dimension);
  EXPECT_NE(base.decisions_jsonl.find("\"kind\": \"prune\""),
            std::string::npos);

  // Decision records carry a "cache" outcome field that legitimately
  // differs with the cache off (same as prune-off runs), so only the
  // fingerprint is compared.
  Outcome no_cache = RunWith(conservative, nb, /*use_cache=*/false);
  EXPECT_EQ(no_cache.fingerprint, base.fingerprint);
}

TEST_F(EnginePruneTest, FreezeLandsAtHoldoutBoundaryAndIsRecorded) {
  NaiveBayesLearner nb;
  const FeaturePrunerOptions conservative = ConservativePruning();
  Outcome run = RunWith(conservative, nb);
  ASSERT_EQ(run.freezes, 1u);
  // eval_every=10 and freeze_after_items=100: the first boundary at or
  // after the warmup is exactly item 100.
  EXPECT_EQ(run.frozen_at_items, 100u);
  EXPECT_EQ(run.frozen_at_items % 10, 0u) << "freeze off an eval boundary";

  // The DecisionLog prune record carries the same facts the metrics do.
  const std::string line = StrFormat(
      "\"kind\": \"prune\", \"items\": %llu",
      static_cast<unsigned long long>(run.frozen_at_items));
  EXPECT_NE(run.decisions_jsonl.find(line), std::string::npos)
      << run.decisions_jsonl;
  for (const std::string& field :
       {StrFormat("\"input_dim\": %llu",
                  static_cast<unsigned long long>(run.input_dimension)),
        StrFormat("\"kept\": %llu",
                  static_cast<unsigned long long>(run.kept_features)),
        StrFormat("\"pruned\": %llu",
                  static_cast<unsigned long long>(run.pruned_features))}) {
    EXPECT_NE(run.decisions_jsonl.find(field), std::string::npos) << field;
  }
}

TEST_F(EnginePruneTest, AggressivePrunesMoreThanConservative) {
  NaiveBayesLearner nb;
  const FeaturePrunerOptions conservative = ConservativePruning();
  const FeaturePrunerOptions aggressive = AggressivePruning();
  Outcome cons = RunWith(conservative, nb);
  Outcome aggr = RunWith(aggressive, nb);
  ASSERT_EQ(cons.freezes, 1u);
  ASSERT_EQ(aggr.freezes, 1u);
  EXPECT_LT(aggr.kept_features, cons.kept_features);
  EXPECT_NE(aggr.fingerprint, cons.fingerprint)
      << "presets with different masks cannot produce identical runs";
}

TEST_F(EnginePruneTest, LearnerWithoutWeightsDisablesPruningAsNoOp) {
  MajorityClassLearner majority;
  Outcome off = RunWith(FeaturePrunerOptions{}, majority);
  const FeaturePrunerOptions conservative = ConservativePruning();
  Outcome on = RunWith(conservative, majority);
  // The majority learner exports no per-feature weights: the pruner disables itself and the
  // run must be byte-identical to never having constructed it.
  EXPECT_EQ(on.freezes, 0u);
  EXPECT_EQ(on.fingerprint, off.fingerprint);
  EXPECT_EQ(on.decisions_jsonl, off.decisions_jsonl);
}

}  // namespace
}  // namespace zombie
