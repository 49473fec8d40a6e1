// Tests of the benchmark itself: decorator transparency, the percentile
// refusal, metric names, and the closed-form full-scan session wait.

#include <fstream>
#include <memory>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_common.h"
#include "core/session.h"
#include "data/corpus_source.h"
#include "data/webcat_generator.h"
#include "decorators.h"
#include "index/incremental_grouper.h"
#include "ledger.h"
#include "ml/feature_pruner.h"
#include "ml/naive_bayes.h"
#include "obs/obs.h"
#include "report.h"
#include "workloads.h"

namespace zombie {
namespace perfbench {
namespace {

constexpr PolicyKind kPolicies[] = {
    PolicyKind::kRoundRobin, PolicyKind::kUniformRandom,
    PolicyKind::kEpsilonGreedy, PolicyKind::kUcb1,
    PolicyKind::kSlidingUcb, PolicyKind::kThompson,
    PolicyKind::kExp3, PolicyKind::kSoftmax,
};

struct Outcome {
  std::string fingerprint;
  std::string decisions;
};

// One streaming, pruned run with the decision log on; `ledger` non-null
// wraps every component in its timing decorator.
Outcome RunOnce(const Task& task, const ScheduledCorpusSource& source,
                const IncrementalGrouper& grouper,
                const GroupingResult& grouping, PolicyKind kind,
                RewardKind reward_kind, Ledger* ledger) {
  ObsContext obs;
  EngineOptions opts = bench::BenchEngineOptions(3);
  opts.pruning = ConservativePruning();
  opts.obs = &obs;
  std::unique_ptr<BanditPolicy> policy = MakePolicy(kind);
  std::unique_ptr<Learner> learner = NaiveBayesLearner().Clone();
  std::unique_ptr<RewardFunction> reward = MakeReward(reward_kind);
  std::unique_ptr<IncrementalGrouper> igrouper = grouper.Clone();
  if (ledger != nullptr) {
    policy = std::make_unique<TimedPolicy>(std::move(policy), ledger);
    learner = std::make_unique<TimedLearner>(std::move(learner), ledger);
    reward = std::make_unique<TimedReward>(std::move(reward), ledger);
    igrouper =
        std::make_unique<TimedIncrementalGrouper>(std::move(igrouper), ledger);
  }
  ZombieEngine engine(&task.corpus, &task.pipeline, opts);
  RunSpec spec(grouping, *policy, *learner, *reward);
  spec.stream = &source;
  spec.incremental_grouper = igrouper.get();
  RunResult r = engine.Run(spec);
  return {r.Fingerprint(), obs.decisions()->ToJsonl()};
}

TEST(DecoratorsTest, WrappedRunsAreByteIdenticalForEveryPolicy) {
  Task task = MakeTask(TaskKind::kEntity, 1200, 5);
  const size_t base = 2 * task.corpus.size() / 3;
  IncrementalKMeansOptions ko;
  ko.num_groups = 8;
  ko.seed = 5;
  ko.split_threshold = 48;  // small enough that the stream opens new arms
  IncrementalKMeansGrouper grouper(ko);
  GroupingResult grouping = grouper.GroupBase(task.corpus, base);
  ArrivalScheduleOptions so;
  so.order = ArrivalOrder::kDomainGrouped;
  ScheduledCorpusSource source(&task.corpus, base,
                               BuildArrivalSchedule(task.corpus, base, so));

  Ledger ledger;
  for (PolicyKind kind : kPolicies) {
    for (RewardKind reward : {RewardKind::kLabel, RewardKind::kImprovement}) {
      SCOPED_TRACE(std::string(PolicyKindName(kind)) + "/" +
                   RewardKindName(reward));
      Outcome plain =
          RunOnce(task, source, grouper, grouping, kind, reward, nullptr);
      Outcome wrapped =
          RunOnce(task, source, grouper, grouping, kind, reward, &ledger);
      EXPECT_EQ(plain.fingerprint, wrapped.fingerprint);
      EXPECT_EQ(plain.decisions, wrapped.decisions);
    }
  }
  // The decorators really sat on every path, streaming and pruning
  // included.
  for (Op op : {Op::kBanditSelect, Op::kBanditScoreArms, Op::kMlScore,
                Op::kMlUpdate, Op::kMlOther, Op::kCoreReward,
                Op::kIndexAssign, Op::kIndexOther}) {
    EXPECT_GT(ledger.totals(op).calls, 0u) << OpName(op);
  }
  EXPECT_GT(ledger.new_arms(), 0u);
}

TEST(ReportTest, PercentileNeedsTenSamplesBeyondIt) {
  std::vector<double> samples;
  for (int i = 1; i <= 99; ++i) samples.push_back(i);
  EXPECT_FALSE(Percentile(samples, 0.90).has_value());
  samples.push_back(100);
  ASSERT_TRUE(Percentile(samples, 0.90).has_value());
  EXPECT_EQ(*Percentile(samples, 0.90), 90.0);

  std::vector<double> nineteen(19, 1.0);
  EXPECT_FALSE(Percentile(nineteen, 0.5).has_value());
  std::vector<double> twenty(20, 1.0);
  EXPECT_TRUE(Percentile(twenty, 0.5).has_value());
  EXPECT_FALSE(Percentile({}, 0.5).has_value());
  EXPECT_FALSE(Percentile(twenty, 1.0).has_value());
}

TEST(ReportTest, MetricNameCharacterSet) {
  EXPECT_TRUE(ValidMetricName("run_ms_p50"));
  EXPECT_TRUE(ValidMetricName("featureeng.cache_hit_ratio"));
  EXPECT_TRUE(ValidMetricName("a-1.b_2"));
  EXPECT_TRUE(ValidMetricName("9lives"));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName("_leading"));
  EXPECT_FALSE(ValidMetricName(".leading"));
  EXPECT_FALSE(ValidMetricName("has space"));
  EXPECT_FALSE(ValidMetricName("items/s"));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
  EXPECT_TRUE(ValidMetricName(std::string(64, 'a')));
}

// Every reported metric is well named, unique, and listed in
// BENCHMARK.json in the order the benchmark prints it.
TEST(ReportTest, ReportedMetricsMatchBenchmarkJson) {
  std::ifstream in(PERFBENCH_BENCHMARK_JSON);
  ASSERT_TRUE(in) << PERFBENCH_BENCHMARK_JSON;
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  auto section = [&](const std::string& key) {
    const size_t at = json.find("\"" + key + "\"");
    EXPECT_NE(at, std::string::npos) << key;
    const size_t end = json.find(']', at);
    std::vector<std::string> names;
    const std::regex name_re("\"name\":\\s*\"([^\"]*)\"");
    const std::string body = json.substr(at, end - at);
    for (std::sregex_iterator it(body.begin(), body.end(), name_re), last;
         it != last; ++it) {
      names.push_back((*it)[1]);
    }
    return names;
  };
  std::set<std::string> seen;
  auto check = [&](const std::vector<MetricSpec>& specs,
                   const std::vector<std::string>& listed) {
    ASSERT_EQ(specs.size(), listed.size());
    for (size_t i = 0; i < specs.size(); ++i) {
      EXPECT_TRUE(ValidMetricName(specs[i].name)) << specs[i].name;
      EXPECT_TRUE(seen.insert(specs[i].name).second) << specs[i].name;
      EXPECT_EQ(listed[i], specs[i].name);
    }
  };
  check(EndToEndMetrics(), section("end_to_end"));
  check(PerLayerMetrics(), section("per_layer"));
  std::vector<std::string> workloads = section("workloads");
  EXPECT_EQ(workloads, WorkloadNames());
  for (const std::string& w : workloads) {
    EXPECT_TRUE(ValidMetricName(w)) << w;
  }
}

TEST(ReportTest, ResultLineCarriesEveryKey) {
  const std::string line =
      ResultJson(true, 12, 0, {{"setup_s", 1.25, "s"}, {"quality", 0.5, "F1"}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, "
            "\"metrics\": {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}, "
            "\"quality\": {\"value\": 0.5, \"unit\": \"F1\"}}}");
}

TEST(WorkloadsTest, ClosedFormFullScanMatchesRunSession) {
  WebCatOptions w;
  w.num_documents = 700;
  w.seed = 9;
  Corpus corpus = GenerateWebCatCorpus(w);
  RevisionScript script = MakeWebCatRevisionScript();
  NaiveBayesLearner nb;
  LabelReward reward;
  SessionResult full =
      RunSession(corpus, script, SessionMode::kFullScan, nullptr, nb, reward,
                 bench::BenchEngineOptions(1));
  EXPECT_EQ(full.total_virtual_micros,
            FullScanSessionVirtualMicros(corpus, script));
}

}  // namespace
}  // namespace perfbench
}  // namespace zombie
