// Tests for obs/decision_log: record bookkeeping, JSONL determinism, and
// the headline property — the serialized log is byte-identical no matter
// how many worker threads the experiment driver uses.

#include "obs/decision_log.h"

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/experiment_driver.h"
#include "core/reward.h"
#include "core/task_factory.h"
#include "gtest/gtest.h"
#include "index/kmeans_grouper.h"
#include "ml/naive_bayes.h"
#include "obs/json_util.h"
#include "obs/obs.h"
#include "util/random.h"

namespace zombie {
namespace {

DecisionRecord MakeRecord(uint64_t iter, uint32_t arm, double reward) {
  DecisionRecord r;
  r.iteration = iter;
  r.arm = arm;
  r.doc_id = 100 + arm;
  r.reward = reward;
  r.cache = CacheOutcome::kMiss;
  r.extraction_cost_micros = 12;
  r.virtual_micros = static_cast<int64_t>(iter) * 12;
  r.arm_scores = {0.5, reward};
  return r;
}

TEST(CacheOutcomeTest, Names) {
  EXPECT_STREQ(CacheOutcomeName(CacheOutcome::kDisabled), "off");
  EXPECT_STREQ(CacheOutcomeName(CacheOutcome::kMiss), "miss");
  EXPECT_STREQ(CacheOutcomeName(CacheOutcome::kHit), "hit");
}

// The printf formulation AppendJsonNumber replaced; its output is the
// serialization contract (DecisionLog digests are pinned against it).
std::string SnprintfJsonNumber(double v) {
  if (std::isnan(v)) return "0";
  if (std::isinf(v)) return v > 0 ? "1e308" : "-1e308";
  char buf[64];
  if (std::fabs(v) < 1e15 &&
      v == static_cast<double>(static_cast<long long>(v))) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

TEST(JsonNumberTest, ByteIdenticalToSnprintf) {
  std::vector<double> values = {
      0.0,
      -0.0,
      0.1,
      -0.1,
      1.0 / 3.0,
      0.5,
      123456.789,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      DBL_MIN,
      DBL_MIN / 3.0,
      DBL_MAX,
      -DBL_MAX,
      1e15,
      -1e15,
      std::nextafter(1e15, 0.0),
      std::nextafter(-1e15, 0.0),
      std::nextafter(1e15, 2e15),
      1e15 + 2.0,
      1e15 - 0.5,
      999999999999999.0,
      9007199254740993.0,
      1e21,
      1e-5,
      1e-4,
      1e16,
      1e17,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
  };
  Rng rng(20261017);
  for (int i = 0; i < 10000; ++i) {
    double v;
    if (i % 2 == 0) {
      // Any bit pattern: every exponent, subnormals, NaN payloads.
      const uint64_t bits = rng.NextUint64();
      std::memcpy(&v, &bits, sizeof(v));
    } else {
      // Magnitudes a run actually logs: rewards, scores, costs.
      v = rng.NextGaussian() * std::pow(10.0, rng.NextDouble(-8.0, 16.0));
      if (i % 6 == 1) v = std::round(v);
    }
    values.push_back(v);
  }
  for (double v : values) {
    std::string got;
    obs_internal::AppendJsonNumber(&got, v);
    ASSERT_EQ(got, SnprintfJsonNumber(v)) << "bits of " << v;
  }
}

TEST(DecisionLogTest, AppendRunAccumulates) {
  DecisionLog log;
  EXPECT_EQ(log.num_runs(), 0u);
  log.AppendRun("b", {MakeRecord(0, 1, 1.0)});
  log.AppendRun("a", {MakeRecord(0, 0, 0.0), MakeRecord(1, 2, 1.0)});
  EXPECT_EQ(log.num_runs(), 2u);
  EXPECT_EQ(log.num_records(), 3u);
  EXPECT_EQ(log.Records("a").size(), 2u);
  EXPECT_EQ(log.Records("b").size(), 1u);
  EXPECT_TRUE(log.Records("absent").empty());
  // Same label appends, preserving order.
  log.AppendRun("b", {MakeRecord(1, 3, 0.5)});
  std::vector<DecisionRecord> b = log.Records("b");
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b[0].arm, 1u);
  EXPECT_EQ(b[1].arm, 3u);
}

TEST(DecisionLogTest, JsonlIsLabelOrderedRegardlessOfCommitOrder) {
  DecisionLog forward;
  forward.AppendRun("run-a", {MakeRecord(0, 0, 1.0)});
  forward.AppendRun("run-b", {MakeRecord(0, 1, 0.0)});
  DecisionLog reversed;
  reversed.AppendRun("run-b", {MakeRecord(0, 1, 0.0)});
  reversed.AppendRun("run-a", {MakeRecord(0, 0, 1.0)});
  EXPECT_EQ(forward.ToJsonl(), reversed.ToJsonl());
  // One line per record, runs in label order.
  std::string jsonl = forward.ToJsonl();
  EXPECT_LT(jsonl.find("run-a"), jsonl.find("run-b"));
}

TEST(DecisionLogTest, JsonlLineShape) {
  DecisionLog log;
  log.AppendRun("lbl", {MakeRecord(7, 3, 0.25)});
  std::string jsonl = log.ToJsonl();
  EXPECT_NE(jsonl.find("\"run\": \"lbl\""), std::string::npos) << jsonl;
  EXPECT_NE(jsonl.find("\"iter\": 7"), std::string::npos);
  EXPECT_NE(jsonl.find("\"arm\": 3"), std::string::npos);
  EXPECT_NE(jsonl.find("\"cache\": \"miss\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"scores\": ["), std::string::npos);
  EXPECT_EQ(jsonl.back(), '\n');
}

// The headline determinism property: running the same grid through the
// driver at different worker-thread counts serializes to identical bytes.
TEST(DecisionLogTest, DriverLogIsByteIdenticalAcrossThreadCounts) {
  Task task = MakeTask(TaskKind::kWebCat, 800, 42);
  KMeansGrouper grouper(8, 7);
  GroupingResult grouping = grouper.Group(task.corpus);
  LabelReward reward;
  NaiveBayesLearner learner;

  auto run_grid = [&](size_t threads) {
    ObsOptions obs_opts;
    obs_opts.metrics = false;
    obs_opts.trace = false;
    ObsContext obs(obs_opts);
    ExperimentDriverOptions dopts;
    dopts.num_threads = threads;
    dopts.engine.stop.max_items = 150;
    dopts.engine.holdout_size = 100;
    dopts.engine.obs = &obs;
    ExperimentDriver driver(&task.corpus, &task.pipeline, dopts);
    ExperimentGrid grid;
    grid.policies = {PolicyKind::kEpsilonGreedy, PolicyKind::kUcb1};
    grid.groupings = {&grouping};
    grid.rewards = {&reward};
    grid.learners = {&learner};
    grid.seeds = {1, 2};
    StatusOr<std::vector<TrialResult>> results = driver.RunGrid(grid);
    EXPECT_TRUE(results.ok()) << results.status().ToString();
    EXPECT_EQ(obs.decisions()->num_runs(), 4u);
    return obs.decisions()->ToJsonl();
  };

  std::string serial = run_grid(1);
  std::string parallel = run_grid(4);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

// Scores recorded at selection time: the engine must snapshot ScoreArms
// before feeding the pull's reward back (pinned here via record content —
// every record's score vector has one entry per arm).
TEST(DecisionLogTest, EngineRecordsCarryPerArmScores) {
  Task task = MakeTask(TaskKind::kWebCat, 600, 42);
  KMeansGrouper grouper(6, 7);
  GroupingResult grouping = grouper.Group(task.corpus);
  LabelReward reward;
  NaiveBayesLearner learner;

  ObsOptions obs_opts;
  obs_opts.metrics = false;
  obs_opts.trace = false;
  ObsContext obs(obs_opts);
  ExperimentDriverOptions dopts;
  dopts.engine.stop.max_items = 80;
  dopts.engine.holdout_size = 80;
  dopts.engine.obs = &obs;
  ExperimentDriver driver(&task.corpus, &task.pipeline, dopts);
  ExperimentGrid grid;
  grid.policies = {PolicyKind::kUcb1};
  grid.groupings = {&grouping};
  grid.rewards = {&reward};
  grid.learners = {&learner};
  grid.seeds = {1};
  StatusOr<std::vector<TrialResult>> results = driver.RunGrid(grid);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(obs.decisions()->num_runs(), 1u);
  std::vector<std::string> labels = obs.decisions()->Labels();
  ASSERT_EQ(labels.size(), 1u);
  EXPECT_EQ(labels[0].find("ucb1"), 0u) << labels[0];
  EXPECT_NE(labels[0].find("/s1"), std::string::npos) << labels[0];
  std::vector<DecisionRecord> records = obs.decisions()->Records(labels[0]);
  ASSERT_FALSE(records.empty())
      << "expected records under label " << labels[0];
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].arm_scores.size(), grouping.num_groups());
    EXPECT_EQ(records[i].iteration, static_cast<uint64_t>(i));
    EXPECT_LT(records[i].arm, grouping.num_groups());
  }
}

}  // namespace
}  // namespace zombie
