// bench_stream — streaming ingestion A/B (E13): the WebCat run at
// stream-off (the whole corpus is the offline base) versus stream-on (a
// 2/3 base plus a virtual-time arrival schedule for the rest, consumed at
// holdout boundaries through the incremental k-means grouper). Both arms
// process the same documents end to end, so the wall ratio isolates what
// ingestion itself costs: shard appends, assign-or-split, and mid-run arm
// registration. IncrementalKMeansGrouper computes the index evolution once
// per primed prototype and shares it with every clone, so all but the
// first streaming run read an evolution an earlier run computed.
// stream_shared_wall_ratio measures that saving on a split-heavy streaming
// arm: its min wall over a prototype an earlier run extended, divided by
// its min wall over a freshly primed prototype per repeat.
//
// Determinism ZCHECKs (the contract the feature rests on):
//   - a drained stream (base == corpus, empty schedule) is byte-identical
//     (RunResult fingerprint) to the plain offline engine, per seed;
//   - the streaming run itself is byte-identical across cache on/off, per
//     seed.

#include <cstdio>
#include <functional>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "bandit/epsilon_greedy.h"
#include "data/corpus_source.h"
#include "index/incremental_grouper.h"
#include "ml/naive_bayes.h"
#include "obs/obs.h"
#include "util/logging.h"

namespace zombie {
namespace bench {
namespace {

/// Fixed-budget engine options: early stops off and max_items covering the
/// whole corpus, so both arms run to exhaustion and compare like for like.
EngineOptions StreamBenchOptions(const Task& task, uint64_t seed,
                                 FeatureCache* cache) {
  EngineOptions opts = BenchEngineOptions(seed);
  opts.stop.max_items = task.corpus.size();
  opts.stop.plateau_enabled = false;
  opts.stop.decline_enabled = false;
  opts.feature_cache = cache;
  return opts;
}

struct ArmOutcome {
  RunResult run;
  uint64_t ingest_docs = 0;
  uint64_t ingest_new_arms = 0;
  uint64_t ingest_windows = 0;
};

ArmOutcome RunArm(const Task& task, const GroupingResult& grouping,
                  uint64_t seed, FeatureCache* cache,
                  const ScheduledCorpusSource* stream,
                  const IncrementalGrouper* igrouper) {
  EngineOptions opts = StreamBenchOptions(task, seed, cache);
  ObsContext obs;
  opts.obs = &obs;
  ZombieEngine engine(&task.corpus, &task.pipeline, opts);
  EpsilonGreedyPolicy policy;
  NaiveBayesLearner nb;
  LabelReward reward;
  RunSpec spec(grouping, policy, nb, reward);
  spec.stream = stream;
  spec.incremental_grouper = igrouper;
  ArmOutcome out;
  out.run = engine.Run(spec);
  out.ingest_docs = static_cast<uint64_t>(
      obs.metrics()->GetCounter("ingest.docs")->value());
  out.ingest_new_arms = static_cast<uint64_t>(
      obs.metrics()->GetCounter("ingest.new_arms")->value());
  out.ingest_windows = static_cast<uint64_t>(
      obs.metrics()->GetCounter("ingest.windows")->value());
  return out;
}

struct MeasuredArm {
  ArmOutcome outcome;
  /// Minimum wall over kWallReps identical repeats — robust against the
  /// scheduling noise of shared CI runners.
  double wall_micros = 0.0;
};

constexpr int kWallReps = 3;

/// Runs `run` kWallReps times; the repeats must be byte-identical.
MeasuredArm MeasureArm(uint64_t seed,
                       const std::function<ArmOutcome()>& run) {
  MeasuredArm out;
  for (int rep = 0; rep < kWallReps; ++rep) {
    ArmOutcome o = run();
    const double wall = static_cast<double>(o.run.wall_micros);
    if (rep == 0) {
      out.wall_micros = wall;
    } else {
      ZCHECK(o.run.Fingerprint() == out.outcome.run.Fingerprint())
          << "repeat run diverged (seed " << seed << ")";
      if (wall < out.wall_micros) out.wall_micros = wall;
    }
    out.outcome = std::move(o);
  }
  return out;
}

double MeanAccuracy(const std::vector<RunResult>& runs) {
  double sum = 0.0;
  for (const RunResult& r : runs) sum += r.final_metrics.accuracy;
  return runs.empty() ? 0.0 : sum / static_cast<double>(runs.size());
}

void Run() {
  PrintPreamble(
      "STREAM: streaming ingestion A/B (WebCat, incremental k-means)",
      "appendable sharded index behind CorpusSource: documents past a 2/3 "
      "offline base arrive on a virtual-time schedule, are assigned (or "
      "split into) groups incrementally, and new arms register with the "
      "policy mid-run at holdout boundaries",
      "stream-on matches stream-off quality on the same documents at a "
      "modest wall overhead; drained-stream runs byte-identical to the "
      "offline engine");

  Task task = MakeTask(TaskKind::kWebCat, BenchCorpusSize(), 42);
  const size_t base = 2 * task.corpus.size() / 3;

  // A grouper prototype can be primed with GroupBase only once, so the
  // full-base (offline / drained) and 2/3-base (streaming) arms each get
  // their own instance of the same configuration.
  IncrementalKMeansOptions kopts;
  kopts.num_groups = 32;
  kopts.seed = 7;
  IncrementalKMeansGrouper igrouper_full(kopts);
  IncrementalKMeansGrouper igrouper(kopts);
  GroupingResult offline_grouping =
      igrouper_full.GroupBase(task.corpus, task.corpus.size());
  GroupingResult stream_grouping = igrouper.GroupBase(task.corpus, base);

  ArrivalScheduleOptions sched;  // 100 docs per virtual second, jittered
  ScheduledCorpusSource source(
      &task.corpus, base, BuildArrivalSchedule(task.corpus, base, sched));
  ScheduledCorpusSource drained(&task.corpus, task.corpus.size(), {});

  // The split-heavy configuration of the sharing A/B: base groups start
  // above the split threshold, as in perfbench's grid_drift (about 250
  // members a group against 128). With the default threshold the smoke
  // preset's stream opens about one arm per seed, too little ingestion
  // work for sharing it to show.
  IncrementalKMeansOptions split_opts = kopts;
  split_opts.split_threshold = 16;
  IncrementalKMeansGrouper split_grouper(split_opts);
  GroupingResult split_grouping = split_grouper.GroupBase(task.corpus, base);

  FeatureCache cache;

  std::vector<RunResult> off_runs;
  std::vector<RunResult> on_runs;
  double wall_off = 0.0;
  double wall_on = 0.0;
  double wall_shared = 0.0;
  double wall_fresh = 0.0;
  uint64_t new_arms_total = 0;
  uint64_t windows_total = 0;
  uint64_t ingest_docs_total = 0;
  for (uint64_t seed : BenchSeeds()) {
    MeasuredArm off = MeasureArm(seed, [&] {
      return RunArm(task, offline_grouping, seed, &cache, nullptr, nullptr);
    });

    // Drained-stream equivalence: the streaming machinery with nothing to
    // ingest must be a perfect no-op against the offline engine.
    ArmOutcome drained_run = RunArm(task, offline_grouping, seed, &cache,
                                    &drained, &igrouper_full);
    ZCHECK(drained_run.run.Fingerprint() == off.outcome.run.Fingerprint())
        << "drained stream changed the run (seed " << seed << ")";

    MeasuredArm on = MeasureArm(seed, [&] {
      return RunArm(task, stream_grouping, seed, &cache, &source, &igrouper);
    });

    // Streaming determinism: byte-identical without the cache (a
    // wall-clock-only knob).
    ArmOutcome on_nocache =
        RunArm(task, stream_grouping, seed, nullptr, &source, &igrouper);
    ZCHECK(on_nocache.run.Fingerprint() == on.outcome.run.Fingerprint())
        << "streaming run depends on the feature cache (seed " << seed << ")";

    // Trajectory sharing: the split-heavy arm over one prototype, whose
    // trajectory an untimed first run extends, against the same arm over a
    // freshly primed prototype per repeat, which computes the index
    // evolution itself.
    RunArm(task, split_grouping, seed, &cache, &source, &split_grouper);
    MeasuredArm shared = MeasureArm(seed, [&] {
      return RunArm(task, split_grouping, seed, &cache, &source,
                    &split_grouper);
    });
    MeasuredArm fresh = MeasureArm(seed, [&] {
      IncrementalKMeansGrouper primed(split_opts);
      primed.GroupBase(task.corpus, base);
      return RunArm(task, split_grouping, seed, &cache, &source, &primed);
    });
    ZCHECK(fresh.outcome.run.Fingerprint() ==
           shared.outcome.run.Fingerprint())
        << "a shared trajectory changed the run (seed " << seed << ")";
    wall_shared += shared.wall_micros;
    wall_fresh += fresh.wall_micros;

    wall_off += off.wall_micros;
    wall_on += on.wall_micros;
    new_arms_total += on.outcome.ingest_new_arms;
    windows_total += on.outcome.ingest_windows;
    ingest_docs_total += on.outcome.ingest_docs;
    off_runs.push_back(std::move(off.outcome.run));
    on_runs.push_back(std::move(on.outcome.run));
  }

  const size_t seeds = BenchSeeds().size();
  const double acc_off = MeanAccuracy(off_runs);
  const double acc_on = MeanAccuracy(on_runs);
  // The gate bounds quality *loss* only: an incremental grouping that
  // happens to classify better must not trip a degradation gate.
  const double quality_delta = acc_off > acc_on ? acc_off - acc_on : 0.0;
  const double wall_ratio = wall_off > 0.0 ? wall_on / wall_off : 0.0;
  const double shared_wall_ratio =
      wall_fresh > 0.0 ? wall_shared / wall_fresh : 0.0;
  const double suffix_docs =
      static_cast<double>(seeds * (task.corpus.size() - base));
  const double coverage =
      suffix_docs > 0.0 ? static_cast<double>(ingest_docs_total) / suffix_docs
                        : 0.0;
  const double mean_new_arms =
      static_cast<double>(new_arms_total) / static_cast<double>(seeds);

  TableWriter table({"arm", "wall_ms(total)", "accuracy", "f1", "arms",
                     "ingest_docs", "windows"});
  struct Row {
    const char* arm;
    const std::vector<RunResult>* runs;
    double wall_micros;
    uint64_t docs;
    uint64_t windows;
  };
  auto mean_arms = [](const std::vector<RunResult>& runs) {
    double sum = 0.0;
    for (const RunResult& r : runs) sum += static_cast<double>(r.arms.size());
    return runs.empty() ? 0.0 : sum / static_cast<double>(runs.size());
  };
  for (const Row& row :
       {Row{"stream_off", &off_runs, wall_off, 0, 0},
        Row{"stream_on", &on_runs, wall_on, ingest_docs_total,
            windows_total}}) {
    table.BeginRow();
    table.Cell(row.arm);
    table.Cell(row.wall_micros / 1e3, 1);
    table.Cell(MeanAccuracy(*row.runs), 4);
    table.Cell(MeanFinalQuality(*row.runs), 4);
    table.Cell(mean_arms(*row.runs), 1);
    table.Cell(static_cast<double>(row.docs), 0);
    table.Cell(static_cast<double>(row.windows), 0);
  }
  FinishTable(table, "stream");
  std::printf("gate:       ingest coverage %.3f (= 1 required: the schedule "
              "must drain), quality delta %.4f, wall ratio %.2f, shared "
              "trajectory wall ratio %.3f (shared %.1f ms / fresh "
              "prototype %.1f ms)\n",
              coverage, quality_delta, wall_ratio, shared_wall_ratio,
              wall_shared / 1e3, wall_fresh / 1e3);

  BenchReporter reporter("stream");
  reporter.AddRuns("stream_off", off_runs);
  reporter.AddRuns("stream_on", on_runs);
  reporter.AddMetric("stream_ingest_coverage", coverage);
  reporter.AddMetric("stream_quality_delta", quality_delta);
  reporter.AddMetric("stream_wall_ratio", wall_ratio);
  reporter.AddMetric("stream_shared_wall_ratio", shared_wall_ratio);
  reporter.AddMetric("stream_new_arms_per_seed", mean_new_arms);
  reporter.Finish();
}

}  // namespace
}  // namespace bench
}  // namespace zombie

int main() {
  zombie::SetLogLevel(zombie::LogLevel::kWarning);
  zombie::bench::Run();
  return 0;
}
