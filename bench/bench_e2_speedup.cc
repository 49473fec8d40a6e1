// E2 — headline speedup table: time (and items) to reach 90/95/99% of the
// full-scan baseline's converged quality, per task. The abstract's "up to
// 8x" claim lives here.

#include <cstdio>

#include "bench_common.h"
#include "index/kmeans_grouper.h"
#include "index/token_grouper.h"
#include "ml/naive_bayes.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace zombie {
namespace bench {
namespace {

void Run() {
  PrintPreamble(
      "E2: time-to-quality speedup over a random full scan",
      "the paper's headline feature-evaluation speedup (abstract: up to 8x)",
      "multi-x speedups on the skewed tasks, ~1x on the balanced control; "
      "ours can exceed 8x because synthetic groups are cleaner than a real "
      "crawl's (see EXPERIMENTS.md)");

  TableWriter table({"task", "grouper", "target", "baseline_t", "zombie_t",
                     "time_speedup", "items_speedup", "valid_trials"});
  BenchReporter reporter("e2_speedup");

  for (TaskKind kind :
       {TaskKind::kWebCat, TaskKind::kEntity, TaskKind::kBalanced}) {
    Task task = MakeTask(kind, BenchCorpusSize(), 42);

    // Grouping per task: k-means for content tasks, the engineer-seeded
    // token index for the extraction task.
    GroupingResult grouping;
    if (kind == TaskKind::kEntity) {
      TokenGrouperOptions topts;
      for (size_t m = 0; m < 5; ++m) {
        topts.seed_terms.push_back(StrFormat("topic0_w%zu", m));
      }
      TokenGrouper grouper(topts);
      grouping = grouper.Group(task.corpus);
    } else {
      KMeansGrouper grouper(32, 7);
      grouping = grouper.Group(task.corpus);
    }

    EngineOptions opts = BenchEngineOptions(1);
    NaiveBayesLearner nb;
    LabelReward reward;
    std::vector<RunResult> zombies = RunZombieTrials(
        task, grouping, PolicyKind::kEpsilonGreedy, reward, nb, opts);
    std::vector<RunResult> baselines = RunScanTrials(task, opts);
    reporter.AddRuns(std::string(task.name) + "/zombie", zombies);
    reporter.AddRuns(std::string(task.name) + "/randomscan", baselines);

    for (double fraction : {0.90, 0.95, 0.99}) {
      MeanSpeedup m = AverageSpeedup(baselines, zombies, fraction);
      // Representative absolute times from the first trial.
      SpeedupReport first = ComputeSpeedup(baselines[0], zombies[0], fraction);
      table.BeginRow();
      table.Cell(task.name);
      table.Cell(grouping.method);
      table.Cell(StrFormat("%.0f%%", fraction * 100.0));
      table.Cell(first.baseline_micros >= 0
                     ? FormatDuration(first.baseline_micros)
                     : "never");
      table.Cell(first.treatment_micros >= 0
                     ? FormatDuration(first.treatment_micros)
                     : "never");
      table.Cell(m.time_speedup, 2);
      table.Cell(m.items_speedup, 2);
      table.Cell(StrFormat("%zu/%zu", m.valid_trials, m.total_trials));
      reporter.AddMetric(StrFormat("%s_speedup_%.0f", task.name.c_str(),
                                   fraction * 100.0),
                         m.time_speedup);
    }
  }
  FinishTable(table, "e2_speedup");
  reporter.Finish();
  std::printf(
      "\nnote: *_t columns are virtual data-processing time of trial 1 "
      "(holdout featurization included on both sides); speedups are means "
      "over valid trials.\n");
}

}  // namespace
}  // namespace bench
}  // namespace zombie

int main() {
  zombie::SetLogLevel(zombie::LogLevel::kWarning);
  zombie::bench::Run();
  return 0;
}
