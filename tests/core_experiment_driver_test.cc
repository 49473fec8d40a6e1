#include "core/experiment_driver.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/baselines.h"
#include "core/engine.h"
#include "core/reward.h"
#include "core/task_factory.h"
#include "data/corpus_source.h"
#include "featureeng/feature_cache.h"
#include "index/incremental_grouper.h"
#include "index/kmeans_grouper.h"
#include "ml/feature_pruner.h"
#include "ml/naive_bayes.h"
#include "util/logging.h"

namespace zombie {
namespace {

// Small but non-trivial workload shared by all tests in this file.
struct Fixture {
  Fixture() : task(MakeTask(TaskKind::kWebCat, 1200, 42)) {
    KMeansGrouper grouper(8, 3);
    grouping = grouper.Group(task.corpus);
  }

  EngineOptions SmallOptions() const {
    EngineOptions opts;
    opts.seed = 7;
    opts.holdout_size = 100;
    opts.eval_every = 20;
    opts.stop.min_items = 100;
    return opts;
  }

  ExperimentGrid SmallGrid() const {
    ExperimentGrid grid;
    grid.policies = {PolicyKind::kEpsilonGreedy, PolicyKind::kUcb1};
    grid.groupings = {&grouping};
    grid.rewards = {&reward};
    grid.learners = {&learner};
    grid.seeds = {1, 2, 3};
    return grid;
  }

  Task task;
  GroupingResult grouping;
  LabelReward reward;
  NaiveBayesLearner learner;
};

void ExpectSameRun(const RunResult& a, const RunResult& b, size_t trial) {
  EXPECT_EQ(a.items_processed, b.items_processed) << "trial " << trial;
  EXPECT_EQ(a.positives_processed, b.positives_processed) << "trial " << trial;
  EXPECT_EQ(a.loop_virtual_micros, b.loop_virtual_micros) << "trial " << trial;
  EXPECT_EQ(a.final_quality, b.final_quality) << "trial " << trial;
  ASSERT_EQ(a.curve.size(), b.curve.size()) << "trial " << trial;
  for (size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_EQ(a.curve.point(i).quality, b.curve.point(i).quality);
    EXPECT_EQ(a.curve.point(i).virtual_micros, b.curve.point(i).virtual_micros);
  }
}

TEST(ExperimentGridTest, SizeIsCrossProduct) {
  Fixture f;
  EXPECT_EQ(f.SmallGrid().size(), 2u * 1u * 1u * 1u * 3u);
}

TEST(ExperimentGridTest, ValidateRejectsEmptyAxes) {
  Fixture f;
  ExperimentGrid grid = f.SmallGrid();
  EXPECT_TRUE(grid.Validate().ok());

  ExperimentGrid no_policies = grid;
  no_policies.policies.clear();
  EXPECT_TRUE(no_policies.Validate().code() == StatusCode::kInvalidArgument);

  ExperimentGrid no_groupings = grid;
  no_groupings.groupings.clear();
  EXPECT_TRUE(no_groupings.Validate().code() == StatusCode::kInvalidArgument);

  ExperimentGrid no_rewards = grid;
  no_rewards.rewards.clear();
  EXPECT_TRUE(no_rewards.Validate().code() == StatusCode::kInvalidArgument);

  ExperimentGrid no_learners = grid;
  no_learners.learners.clear();
  EXPECT_TRUE(no_learners.Validate().code() == StatusCode::kInvalidArgument);

  ExperimentGrid no_seeds = grid;
  no_seeds.seeds.clear();
  EXPECT_TRUE(no_seeds.Validate().code() == StatusCode::kInvalidArgument);
}

TEST(ExperimentGridTest, ValidateRejectsNullPrototypes) {
  Fixture f;
  ExperimentGrid grid = f.SmallGrid();
  grid.groupings.push_back(nullptr);
  EXPECT_TRUE(grid.Validate().code() == StatusCode::kInvalidArgument);

  grid = f.SmallGrid();
  grid.rewards.push_back(nullptr);
  EXPECT_TRUE(grid.Validate().code() == StatusCode::kInvalidArgument);

  grid = f.SmallGrid();
  grid.learners.push_back(nullptr);
  EXPECT_TRUE(grid.Validate().code() == StatusCode::kInvalidArgument);
}

TEST(ExperimentDriverTest, RunGridPropagatesValidationError) {
  Fixture f;
  ExperimentDriverOptions opts;
  opts.engine = f.SmallOptions();
  ExperimentDriver driver(&f.task.corpus, &f.task.pipeline, opts);
  ExperimentGrid empty;
  auto result = driver.RunGrid(empty);
  EXPECT_TRUE(result.status().code() == StatusCode::kInvalidArgument);
}

TEST(ExperimentDriverTest, ResultsComeBackInGridOrder) {
  Fixture f;
  ExperimentDriverOptions opts;
  opts.num_threads = 4;
  opts.engine = f.SmallOptions();
  ExperimentDriver driver(&f.task.corpus, &f.task.pipeline, opts);

  ExperimentGrid grid = f.SmallGrid();
  auto trials = driver.RunGrid(grid);
  ASSERT_TRUE(trials.ok()) << trials.status().ToString();
  ASSERT_EQ(trials.value().size(), grid.size());
  // Row-major: policy-major, seed-minor.
  for (size_t i = 0; i < trials.value().size(); ++i) {
    const TrialSpec& spec = trials.value()[i].spec;
    EXPECT_EQ(spec.index, i);
    EXPECT_EQ(spec.policy, grid.policies[i / grid.seeds.size()]);
    EXPECT_EQ(spec.seed, grid.seeds[i % grid.seeds.size()]);
    EXPECT_GT(trials.value()[i].run.items_processed, 0u);
  }
}

// The determinism contract the driver documents: the returned vector is
// bit-identical at any thread count.
TEST(ExperimentDriverTest, ThreadCountDoesNotChangeResults) {
  Fixture f;
  ExperimentGrid grid = f.SmallGrid();

  auto run_with_threads = [&](size_t n) {
    ExperimentDriverOptions opts;
    opts.num_threads = n;
    opts.engine = f.SmallOptions();
    ExperimentDriver driver(&f.task.corpus, &f.task.pipeline, opts);
    auto trials = driver.RunGrid(grid);
    ZCHECK_OK(trials.status());
    return std::move(trials).value();
  };

  std::vector<TrialResult> serial = run_with_threads(1);
  for (size_t n : {2u, 8u}) {
    std::vector<TrialResult> parallel = run_with_threads(n);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      ExpectSameRun(serial[i].run, parallel[i].run, i);
    }
  }
}

// A shared feature cache accelerates trials but must never leak between
// them in a way that alters results.
TEST(ExperimentDriverTest, SharedCacheDoesNotChangeResults) {
  Fixture f;
  ExperimentGrid grid = f.SmallGrid();

  ExperimentDriverOptions plain_opts;
  plain_opts.num_threads = 4;
  plain_opts.engine = f.SmallOptions();
  ExperimentDriver plain(&f.task.corpus, &f.task.pipeline, plain_opts);
  auto plain_trials = plain.RunGrid(grid);
  ASSERT_TRUE(plain_trials.ok());

  FeatureCache cache;
  ExperimentDriverOptions cached_opts = plain_opts;
  cached_opts.cache = &cache;
  ExperimentDriver cached(&f.task.corpus, &f.task.pipeline, cached_opts);
  auto cached_trials = cached.RunGrid(grid);
  ASSERT_TRUE(cached_trials.ok());

  ASSERT_EQ(plain_trials.value().size(), cached_trials.value().size());
  for (size_t i = 0; i < plain_trials.value().size(); ++i) {
    ExpectSameRun(plain_trials.value()[i].run, cached_trials.value()[i].run,
                  i);
  }
  // All trials share one pipeline, so cross-trial hits must have happened.
  EXPECT_GT(cache.Stats().hits, 0u);
}

// RunScanBaselines is the same computation as the serial baseline helpers;
// the pool only changes who executes it.
TEST(ExperimentDriverTest, ScanBaselinesMatchSerialBaselines) {
  Fixture f;
  ExperimentDriverOptions opts;
  opts.num_threads = 4;
  opts.engine = f.SmallOptions();
  ExperimentDriver driver(&f.task.corpus, &f.task.pipeline, opts);

  std::vector<uint64_t> seeds = {11, 12, 13};
  std::vector<RunResult> random = driver.RunScanBaselines(seeds, f.learner);
  std::vector<RunResult> sequential =
      driver.RunScanBaselines(seeds, f.learner, /*sequential=*/true);
  ASSERT_EQ(random.size(), seeds.size());
  ASSERT_EQ(sequential.size(), seeds.size());

  for (size_t i = 0; i < seeds.size(); ++i) {
    EngineOptions eopts = f.SmallOptions();
    eopts.seed = seeds[i];
    ZombieEngine engine(&f.task.corpus, &f.task.pipeline,
                        FullScanOptions(eopts));
    ExpectSameRun(RunRandomBaseline(engine, f.learner), random[i], i);
    ExpectSameRun(RunSequentialBaseline(engine, f.learner), sequential[i], i);
  }
}

// --- Prunings axis (per-trial EngineOptions::pruning through the grid). ---

TEST(ExperimentGridTest, PruningsAxisMultipliesSizeAndLabels) {
  Fixture f;
  ExperimentGrid grid = f.SmallGrid();
  EXPECT_EQ(grid.size(), 6u);
  FeaturePrunerOptions conservative = ConservativePruning();
  grid.prunings = {nullptr, &conservative};
  EXPECT_EQ(grid.size(), 12u);
  EXPECT_TRUE(grid.Validate().ok());
}

TEST(ExperimentDriverTest, PruningsAxisExpandsInOrderWithStableLabels) {
  Fixture f;
  ExperimentDriverOptions opts;
  opts.num_threads = 4;
  opts.engine = f.SmallOptions();
  // Enough post-freeze runway (freeze_after_items defaults to 100) for the
  // override to leave a mark on the run fingerprint.
  opts.engine.stop.max_items = 200;
  ExperimentDriver driver(&f.task.corpus, &f.task.pipeline, opts);

  FeaturePrunerOptions conservative = ConservativePruning();
  ExperimentGrid grid = f.SmallGrid();
  grid.policies = {PolicyKind::kEpsilonGreedy};
  grid.seeds = {1, 2};
  grid.prunings = {nullptr, &conservative};
  auto trials = driver.RunGrid(grid);
  ASSERT_TRUE(trials.ok()) << trials.status().ToString();
  ASSERT_EQ(trials.value().size(), 4u);
  // Expansion order: prunings between learners and seeds (seed-minor).
  for (size_t i = 0; i < trials.value().size(); ++i) {
    const TrialSpec& spec = trials.value()[i].spec;
    EXPECT_EQ(spec.index, i);
    EXPECT_EQ(spec.pruning, grid.prunings[i / 2]);
    EXPECT_EQ(spec.pruning_index, i / 2);
    EXPECT_EQ(spec.seed, grid.seeds[i % 2]);
    // Labels: the no-override cell keeps the legacy label, the override
    // cell appends its axis position.
    if (spec.pruning == nullptr) {
      EXPECT_EQ(spec.Label().find("/prune@"), std::string::npos);
    } else {
      EXPECT_NE(spec.Label().find("/prune@1"), std::string::npos)
          << spec.Label();
    }
  }
  // The prune-off and prune-on arms of a seed really differ (the override
  // reached the engine), while same-pruning same-seed cells reproduce the
  // legacy (no-axis) grid exactly.
  ExperimentGrid legacy = grid;
  legacy.prunings.clear();
  auto legacy_trials = driver.RunGrid(legacy);
  ASSERT_TRUE(legacy_trials.ok());
  ASSERT_EQ(legacy_trials.value().size(), 2u);
  for (size_t s = 0; s < 2; ++s) {
    ExpectSameRun(legacy_trials.value()[s].run, trials.value()[s].run, s);
    EXPECT_EQ(legacy_trials.value()[s].spec.Label(),
              trials.value()[s].spec.Label());
  }
  EXPECT_NE(trials.value()[0].run.Fingerprint(),
            trials.value()[2].run.Fingerprint())
      << "pruning override had no observable effect";
}

// --- Streaming grids (ExperimentDriverOptions::stream). -------------------

TEST(ExperimentDriverTest, StreamingGridDeterministicAcrossThreads) {
  Fixture f;
  IncrementalKMeansOptions kopts;
  kopts.num_groups = 6;
  kopts.seed = 5;
  kopts.split_threshold = 16;
  IncrementalKMeansGrouper igrouper(kopts);
  const size_t base = 800;
  GroupingResult base_grouping = igrouper.GroupBase(f.task.corpus, base);
  ScheduledCorpusSource source(
      &f.task.corpus, base,
      BuildArrivalSchedule(f.task.corpus, base, ArrivalScheduleOptions{}));

  ExperimentGrid grid;
  grid.policies = {PolicyKind::kEpsilonGreedy, PolicyKind::kSlidingUcb};
  grid.groupings = {&base_grouping};
  grid.rewards = {&f.reward};
  grid.learners = {&f.learner};
  grid.seeds = {1, 2};

  auto run_with_threads = [&](size_t n) {
    ExperimentDriverOptions opts;
    opts.num_threads = n;
    opts.engine = f.SmallOptions();
    opts.engine.stop.max_items = 150;
    opts.stream = &source;
    opts.incremental_grouper = &igrouper;
    ExperimentDriver driver(&f.task.corpus, &f.task.pipeline, opts);
    auto trials = driver.RunGrid(grid);
    ZCHECK_OK(trials.status());
    return std::move(trials).value();
  };

  std::vector<TrialResult> serial = run_with_threads(1);
  // Non-vacuity: streaming really reached the trials (arms can outgrow the
  // base grouping).
  for (const TrialResult& t : serial) {
    EXPECT_GE(t.run.arms.size(), base_grouping.num_groups());
  }
  std::vector<TrialResult> parallel = run_with_threads(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ExpectSameRun(serial[i].run, parallel[i].run, i);
    ASSERT_EQ(serial[i].run.arms.size(), parallel[i].run.arms.size()) << i;
  }
}

TEST(ExperimentDriverTest, ZeroThreadsResolvesToHardware) {
  Fixture f;
  ExperimentDriverOptions opts;
  opts.num_threads = 0;
  ExperimentDriver driver(&f.task.corpus, &f.task.pipeline, opts);
  EXPECT_GE(driver.num_threads(), 1u);
}

}  // namespace
}  // namespace zombie
