// Cross-revision behaviour pin for the engine (core/engine.cc).
//
// Every other byte-identity test compares modes within one build (cache
// on/off, thread counts, SIMD levels); a change that alters selection the
// same way in every mode passes them all. This test hard-codes digests of
// RunResult::Fingerprint() and of the DecisionLog JSONL for a small fixed
// matrix — naive Bayes x {label, improvement} x {prune off, conservative}
// x {offline, streaming}, plus one tuned-threshold naive-Bayes run and one
// run per per-row learner (logreg, adagrad, perceptron, svm), on a
// 400-document WebCat corpus — so such a change fails here instead.
//
// The streaming matrix pins every policy under both rewards through one
// primed incremental k-means prototype, run in sequence, so later runs
// read an index evolution that earlier runs computed; plus one streaming
// run each over the metadata and token incremental groupers, and the
// SessionResult of a tiny streaming session and of a full-scan session.
//
// Updating the pins: a change that alters engine behaviour on purpose
// prints the new digests in the failure message (`EngineGoldenTest.Matrix`
// lists every case as a paste-ready table row); paste them into kGolden and
// say why in CHANGES.md. The values depend on libm's log/exp, so they are
// pinned for glibc x86-64.
//
// The same matrix also checks how often the engine scores the model: at
// most one probe evaluation per pull (plus one after each learner
// compaction and one at the start), and exactly one holdout evaluation per
// learning-curve point.

#include <cinttypes>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bandit/epsilon_greedy.h"
#include "bandit/policy.h"
#include "core/engine.h"
#include "core/reward.h"
#include "core/session.h"
#include "core/task_factory.h"
#include "data/corpus_source.h"
#include "featureeng/revision_script.h"
#include "gtest/gtest.h"
#include "index/incremental_grouper.h"
#include "ml/adagrad_lr.h"
#include "ml/dataset.h"
#include "ml/feature_pruner.h"
#include "ml/logistic_regression.h"
#include "ml/naive_bayes.h"
#include "ml/pegasos_svm.h"
#include "ml/perceptron.h"
#include "obs/obs.h"
#include "util/string_util.h"

namespace zombie {
namespace {

constexpr size_t kDocs = 400;
constexpr size_t kStreamBase = 300;
constexpr size_t kHoldoutSize = 120;
constexpr size_t kProbeSize = 40;

// FNV-1a 64: a digest defined here, so the pins depend on nothing else in
// the repo.
uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Forwards to a learner and counts whole-dataset scoring passes by the
/// dataset's size: the probe (kProbeSize rows) and the holdout
/// (kHoldoutSize rows) are the only datasets the engine scores.
struct ScoreCounts {
  size_t probe_evals = 0;
  size_t holdout_evals = 0;
};

class CountingLearner final : public Learner {
 public:
  CountingLearner(std::unique_ptr<Learner> inner, ScoreCounts* counts)
      : inner_(std::move(inner)), counts_(counts) {}

  void Update(SparseVectorView x, int32_t y) override { inner_->Update(x, y); }
  double Score(SparseVectorView x) const override { return inner_->Score(x); }
  void ScoreBatch(const Dataset& data, double* out) const override {
    if (data.size() == kProbeSize) ++counts_->probe_evals;
    if (data.size() == kHoldoutSize) ++counts_->holdout_evals;
    inner_->ScoreBatch(data, out);
  }
  void Reset() override { inner_->Reset(); }
  std::unique_ptr<Learner> Clone() const override {
    return std::make_unique<CountingLearner>(inner_->Clone(), counts_);
  }
  std::string name() const override { return inner_->name(); }
  size_t num_updates() const override { return inner_->num_updates(); }
  bool ExportWeightMagnitudes(std::vector<double>* out) const override {
    return inner_->ExportWeightMagnitudes(out);
  }
  bool CompactFeatures(const std::vector<uint32_t>& old_to_new,
                       uint32_t new_dimension) override {
    return inner_->CompactFeatures(old_to_new, new_dimension);
  }

 private:
  std::unique_ptr<Learner> inner_;
  ScoreCounts* counts_;
};

std::unique_ptr<Learner> MakeLearner(const std::string& name) {
  if (name == "logreg") return std::make_unique<LogisticRegressionLearner>();
  if (name == "adagrad") return std::make_unique<AdaGradLogisticLearner>();
  if (name == "perceptron") {
    return std::make_unique<AveragedPerceptronLearner>();
  }
  if (name == "svm") return std::make_unique<PegasosSvmLearner>();
  return std::make_unique<NaiveBayesLearner>();
}

struct GoldenCase {
  const char* name;
  const char* learner;
  bool tune_threshold;
  bool improvement;
  bool prune;
  bool streaming;
  uint64_t fingerprint_digest;
  uint64_t decisions_digest;
};

// The eight naive-Bayes rows were recorded on the engine that scored every
// row with Score() and the probe twice per pull; batched scoring and the
// probe carry-over left them as they were. The tuned-threshold and per-row
// learner rows were recorded while the holdout could still be scored in
// sharded ScoreBatch calls on a thread pool; its removal left them as they
// were.
constexpr GoldenCase kGolden[] = {
    {"label/off/offline", "nb", false, false, false, false,
     0x4fad7860620f929cull, 0xa8bffe6576303111ull},
    {"label/off/stream", "nb", false, false, false, true,
     0x7ba604edcb5211feull, 0xc11e5bfda2cf6938ull},
    {"label/conservative/offline", "nb", false, false, true, false,
     0x34a99913f049475cull, 0xd8fa095b502c37f6ull},
    {"label/conservative/stream", "nb", false, false, true, true,
     0x3744e92c974ffaaaull, 0x1edc4282895275d0ull},
    {"improvement/off/offline", "nb", false, true, false, false,
     0xb523a43e507da016ull, 0x877690230a7a44a9ull},
    {"improvement/off/stream", "nb", false, true, false, true,
     0x359a62ee3f4279d3ull, 0xd37dc145495d3383ull},
    {"improvement/conservative/offline", "nb", false, true, true, false,
     0xce3783663922ae46ull, 0x3cdc80e6c4f7e187ull},
    {"improvement/conservative/stream", "nb", false, true, true, true,
     0x5ca2c23a95fd84c1ull, 0xfbb55eb01ec25d75ull},
    {"tuned/label/off/offline", "nb", true, false, false, false,
     0x176ad0190f4fb2b2ull, 0xc9b3f79bfcc03c9aull},
    {"logreg/label/off/offline", "logreg", false, false, false, false,
     0xabc79b43455679ecull, 0x67b0c3c53d9d3a11ull},
    {"adagrad/label/off/offline", "adagrad", false, false, false, false,
     0x9a6ce6912820a650ull, 0x12439e34246f0fb5ull},
    {"perceptron/label/off/offline", "perceptron", false, false, false, false,
     0x710a33f948255fd3ull, 0x473cf14e1b5c2fbdull},
    {"svm/label/off/offline", "svm", false, false, false, false,
     0x285dcc82f7a4bd16ull, 0x41a3bc35fb657c15ull},
};

struct Outcome {
  uint64_t fingerprint_digest = 0;
  uint64_t decisions_digest = 0;
  size_t items = 0;
  size_t curve_points = 0;
  size_t freezes = 0;
  ScoreCounts counts;
};

EngineOptions GoldenEngineOptions() {
  EngineOptions opts;
  opts.seed = 3;
  opts.holdout_size = kHoldoutSize;
  opts.probe_size = kProbeSize;
  opts.eval_every = 10;
  opts.stop.max_items = 220;
  opts.stop.min_items = 120;
  return opts;
}

IncrementalKMeansOptions GoldenKMeansOptions() {
  IncrementalKMeansOptions kopts;
  kopts.num_groups = 6;
  kopts.seed = 7;
  kopts.split_threshold = 16;
  return kopts;
}

ScheduledCorpusSource GoldenSource(const Corpus& corpus, size_t base) {
  ArrivalScheduleOptions sched;
  sched.docs_per_virtual_second = 50.0;
  return ScheduledCorpusSource(&corpus, base,
                               BuildArrivalSchedule(corpus, base, sched));
}

class EngineGoldenTest : public ::testing::Test {
 protected:
  EngineGoldenTest() : task_(MakeTask(TaskKind::kWebCat, kDocs, 42)) {}

  Outcome Run(const GoldenCase& c) const {
    IncrementalKMeansGrouper igrouper(GoldenKMeansOptions());
    const size_t base = c.streaming ? kStreamBase : task_.corpus.size();
    GroupingResult grouping = igrouper.GroupBase(task_.corpus, base);
    ScheduledCorpusSource source = GoldenSource(task_.corpus, base);

    EngineOptions opts = GoldenEngineOptions();
    opts.tune_threshold = c.tune_threshold;
    if (c.prune) opts.pruning = ConservativePruning();
    ObsContext obs;
    opts.obs = &obs;

    Outcome out;
    EpsilonGreedyPolicy policy;
    LabelReward label;
    ImprovementReward improvement;
    CountingLearner learner(MakeLearner(c.learner), &out.counts);
    ZombieEngine engine(&task_.corpus, &task_.pipeline, opts);
    const RewardFunction& reward =
        c.improvement ? static_cast<const RewardFunction&>(improvement)
                      : label;
    RunSpec spec(grouping, policy, learner, reward);
    if (c.streaming) {
      spec.stream = &source;
      spec.incremental_grouper = &igrouper;
    }
    RunResult r = engine.Run(spec);

    out.fingerprint_digest = Fnv1a(r.Fingerprint());
    out.decisions_digest = Fnv1a(obs.decisions()->ToJsonl());
    out.items = r.items_processed;
    out.curve_points = r.curve.size();
    out.freezes = obs.metrics()->GetCounter("prune.freezes")->value();
    return out;
  }

  Task task_;
};

TEST_F(EngineGoldenTest, Matrix) {
  std::string table;
  for (const GoldenCase& c : kGolden) {
    SCOPED_TRACE(c.name);
    Outcome out = Run(c);
    EXPECT_EQ(out.fingerprint_digest, c.fingerprint_digest);
    EXPECT_EQ(out.decisions_digest, c.decisions_digest);
    table += StrFormat(
        "    {\"%s\", \"%s\", %s, %s, %s, %s,\n     0x%016" PRIx64
        "ull, 0x%016" PRIx64 "ull},\n",
        c.name, c.learner, c.tune_threshold ? "true" : "false",
        c.improvement ? "true" : "false", c.prune ? "true" : "false",
        c.streaming ? "true" : "false", out.fingerprint_digest,
        out.decisions_digest);
  }
  if (HasFailure()) ADD_FAILURE() << "current digests:\n" << table;
}

// Streaming rows, in run order: "<grouper>/<policy>/<reward>". The ikmeans
// rows all run through one prototype, so their order is part of the pin.
struct StreamCase {
  const char* name;
  uint64_t fingerprint_digest;
  uint64_t decisions_digest;
};

constexpr StreamCase kStreamGolden[] = {
    {"ikmeans/roundrobin/label", 0xfcf1497a35a93192ull,
     0x8ad7619b8151b285ull},
    {"ikmeans/random/label", 0xe5e6775831ce99b1ull,
     0xd352a90e13b095c7ull},
    {"ikmeans/egreedy/label", 0x7ba604edcb5211feull,
     0xc11e5bfda2cf6938ull},
    {"ikmeans/ucb1/label", 0x549aaf956b67c7acull,
     0xa94aca7ae3c28b26ull},
    {"ikmeans/swucb/label", 0x88fc4b4295b4b331ull,
     0xc9824b99911f2e95ull},
    {"ikmeans/thompson/label", 0x7a6605b5e3ec44acull,
     0x54b6143d94505969ull},
    {"ikmeans/exp3/label", 0x5f40255aeb80dd37ull,
     0x919ec2dfffaa4f55ull},
    {"ikmeans/softmax/label", 0x48d17a1d30b7f71eull,
     0x68992b83ebb79575ull},
    {"ikmeans/roundrobin/improvement", 0xd97ca4c61511c513ull,
     0xda5447777b1e1e34ull},
    {"ikmeans/random/improvement", 0x83c38b9e7562bc0dull,
     0x16ce4b8580f6d208ull},
    {"ikmeans/egreedy/improvement", 0x359a62ee3f4279d3ull,
     0xd37dc145495d3383ull},
    {"ikmeans/ucb1/improvement", 0x2ef94f47f974de72ull,
     0x4fc7d6feb23545efull},
    {"ikmeans/swucb/improvement", 0xb64936a307769133ull,
     0xc8c1ff3165b7218full},
    {"ikmeans/thompson/improvement", 0x526eae1ef6c2736cull,
     0xb769e681565be036ull},
    {"ikmeans/exp3/improvement", 0x4f8fe6d7ba34d14aull,
     0x7039a8826a833e96ull},
    {"ikmeans/softmax/improvement", 0xab57fbf365fc5c77ull,
     0x25f878f304336fb2ull},
    {"imeta/egreedy/label", 0xba2421400fb3eaa4ull,
     0x6362ce7278ff482full},
    {"itoken/egreedy/label", 0x64b56783631215cfull,
     0xd0d1a4c9084ac828ull},
};

constexpr PolicyKind kPolicies[] = {
    PolicyKind::kRoundRobin, PolicyKind::kUniformRandom,
    PolicyKind::kEpsilonGreedy, PolicyKind::kUcb1,
    PolicyKind::kSlidingUcb, PolicyKind::kThompson,
    PolicyKind::kExp3, PolicyKind::kSoftmax,
};

class StreamGoldenTest : public EngineGoldenTest {
 protected:
  // One streaming run of `kind` x reward over a primed `prototype`.
  std::pair<uint64_t, uint64_t> RunStream(const IncrementalGrouper& prototype,
                                          const GroupingResult& grouping,
                                          const ScheduledCorpusSource& source,
                                          PolicyKind kind,
                                          bool improvement) const {
    EngineOptions opts = GoldenEngineOptions();
    ObsContext obs;
    opts.obs = &obs;
    std::unique_ptr<BanditPolicy> policy = MakePolicy(kind);
    NaiveBayesLearner learner;
    LabelReward label;
    ImprovementReward improvement_reward;
    const RewardFunction& reward =
        improvement ? static_cast<const RewardFunction&>(improvement_reward)
                    : label;
    ZombieEngine engine(&task_.corpus, &task_.pipeline, opts);
    RunSpec spec(grouping, *policy, learner, reward);
    spec.stream = &source;
    spec.incremental_grouper = &prototype;
    RunResult r = engine.Run(spec);
    return {Fnv1a(r.Fingerprint()), Fnv1a(obs.decisions()->ToJsonl())};
  }
};

TEST_F(StreamGoldenTest, PoliciesThroughOnePrototype) {
  const ScheduledCorpusSource source = GoldenSource(task_.corpus, kStreamBase);
  IncrementalKMeansGrouper kmeans(GoldenKMeansOptions());
  const GroupingResult kmeans_grouping =
      kmeans.GroupBase(task_.corpus, kStreamBase);
  IncrementalMetadataGrouper meta;
  const GroupingResult meta_grouping =
      meta.GroupBase(task_.corpus, kStreamBase);
  IncrementalTokenGrouper token;
  const GroupingResult token_grouping =
      token.GroupBase(task_.corpus, kStreamBase);

  std::vector<std::pair<std::string, std::pair<uint64_t, uint64_t>>> got;
  for (bool improvement : {false, true}) {
    for (PolicyKind kind : kPolicies) {
      got.emplace_back(
          StrFormat("ikmeans/%s/%s", PolicyKindName(kind),
                    improvement ? "improvement" : "label"),
          RunStream(kmeans, kmeans_grouping, source, kind, improvement));
    }
  }
  got.emplace_back("imeta/egreedy/label",
                   RunStream(meta, meta_grouping, source,
                             PolicyKind::kEpsilonGreedy, false));
  got.emplace_back("itoken/egreedy/label",
                   RunStream(token, token_grouping, source,
                             PolicyKind::kEpsilonGreedy, false));

  ASSERT_EQ(got.size(), std::size(kStreamGolden));
  std::string table;
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(got[i].first);
    EXPECT_EQ(got[i].first, kStreamGolden[i].name);
    EXPECT_EQ(got[i].second.first, kStreamGolden[i].fingerprint_digest);
    EXPECT_EQ(got[i].second.second, kStreamGolden[i].decisions_digest);
    table += StrFormat("    {\"%s\", 0x%016" PRIx64 "ull,\n     0x%016" PRIx64
                       "ull},\n",
                       got[i].first.c_str(), got[i].second.first,
                       got[i].second.second);
  }
  if (HasFailure()) ADD_FAILURE() << "current digests:\n" << table;
}

// Everything in a SessionResult except the index build's wall time.
std::string SessionDigestInput(const SessionResult& s) {
  std::string out = StrFormat("%s %" PRId64 " %" PRId64 " %a\n",
                              SessionModeName(s.mode), s.index_virtual_micros,
                              s.total_virtual_micros, s.best_quality);
  for (const RevisionOutcome& r : s.revisions) {
    out += StrFormat("%s %zu %" PRId64 " %a %s\n", r.revision_name.c_str(),
                     r.items_processed, r.virtual_micros, r.final_quality,
                     StopReasonName(r.stop_reason));
  }
  return out;
}

TEST_F(StreamGoldenTest, TinySessions) {
  const RevisionScript full = MakeWebCatRevisionScript();
  RevisionScript script;
  for (size_t i : {size_t{1}, size_t{6}}) {
    script.Add(full.name(i), [&full, i](const Corpus& c) {
      return full.BuildPipeline(i, c);
    });
  }
  const ScheduledCorpusSource source = GoldenSource(task_.corpus, kStreamBase);
  IncrementalKMeansGrouper kmeans(GoldenKMeansOptions());
  SessionStreamConfig stream;
  stream.source = &source;
  stream.incremental_grouper = &kmeans;
  NaiveBayesLearner learner;
  LabelReward reward;
  // No item cap: each revision runs to its plateau or the end of supply.
  EngineOptions opts = GoldenEngineOptions();
  opts.stop.max_items = std::numeric_limits<size_t>::max();
  const SessionResult streaming =
      RunSession(task_.corpus, script, SessionMode::kZombie, nullptr, learner,
                 reward, opts, false, nullptr, {}, nullptr, &stream);
  const SessionResult full_scan =
      RunSession(task_.corpus, script, SessionMode::kFullScan, nullptr,
                 learner, reward, opts);
  ASSERT_EQ(streaming.revisions.size(), 2u);
  const uint64_t streaming_digest = Fnv1a(SessionDigestInput(streaming));
  const uint64_t full_scan_digest = Fnv1a(SessionDigestInput(full_scan));
  EXPECT_EQ(streaming_digest, 0x8da0dd265c04dfceull) << SessionDigestInput(streaming);
  EXPECT_EQ(full_scan_digest, 0x6a97d0497c392587ull) << SessionDigestInput(full_scan);
  if (HasFailure()) {
    ADD_FAILURE() << StrFormat("current digests: 0x%016" PRIx64
                               "ull, 0x%016" PRIx64 "ull",
                               streaming_digest, full_scan_digest);
  }
}

TEST_F(EngineGoldenTest, ScoresEachModelStateOnce) {
  for (const GoldenCase& c : kGolden) {
    SCOPED_TRACE(c.name);
    Outcome out = Run(c);
    ASSERT_GT(out.items, 0u);
    // Non-vacuity: the pruned cases really froze mid-run.
    EXPECT_EQ(out.freezes, c.prune ? 1u : 0u);
    EXPECT_EQ(out.counts.holdout_evals, out.curve_points);
    if (c.improvement) {
      EXPECT_LE(out.counts.probe_evals, out.items + 1 + out.freezes);
      EXPECT_GE(out.counts.probe_evals, out.items);
    } else {
      EXPECT_EQ(out.counts.probe_evals, 0u);
    }
  }
}

}  // namespace
}  // namespace zombie
