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
#include <memory>
#include <string>
#include <vector>

#include "bandit/epsilon_greedy.h"
#include "core/engine.h"
#include "core/reward.h"
#include "core/task_factory.h"
#include "data/corpus_source.h"
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

class EngineGoldenTest : public ::testing::Test {
 protected:
  EngineGoldenTest() : task_(MakeTask(TaskKind::kWebCat, kDocs, 42)) {}

  Outcome Run(const GoldenCase& c) const {
    IncrementalKMeansOptions kopts;
    kopts.num_groups = 6;
    kopts.seed = 7;
    kopts.split_threshold = 16;
    IncrementalKMeansGrouper igrouper(kopts);
    const size_t base = c.streaming ? kStreamBase : task_.corpus.size();
    GroupingResult grouping = igrouper.GroupBase(task_.corpus, base);
    ArrivalScheduleOptions sched;
    sched.docs_per_virtual_second = 50.0;
    ScheduledCorpusSource source(
        &task_.corpus, base, BuildArrivalSchedule(task_.corpus, base, sched));

    EngineOptions opts;
    opts.seed = 3;
    opts.holdout_size = kHoldoutSize;
    opts.probe_size = kProbeSize;
    opts.eval_every = 10;
    opts.stop.max_items = 220;
    opts.stop.min_items = 120;
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
