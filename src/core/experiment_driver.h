#ifndef ZOMBIE_CORE_EXPERIMENT_DRIVER_H_
#define ZOMBIE_CORE_EXPERIMENT_DRIVER_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bandit/policy.h"
#include "core/config.h"
#include "core/reward.h"
#include "core/run_result.h"
#include "data/corpus.h"
#include "featureeng/extraction_service.h"
#include "featureeng/feature_cache.h"
#include "featureeng/pipeline.h"
#include "index/grouper.h"
#include "ml/learner.h"
#include "util/status.h"

namespace zombie {

class ScheduledCorpusSource;
class IncrementalGrouper;

/// A declarative experiment grid: the cross product
///
///   policies x groupings x rewards x learners x prunings x seeds
///
/// Every axis except seeds may be left with a single element; every axis
/// except prunings must be non-empty (an empty prunings axis means one
/// prune-off cell — identical trial order and labels to grids that predate
/// the axis). Groupings, rewards, learners, and prunings are borrowed
/// prototypes and must outlive the RunGrid call (rewards and learners are
/// cloned per trial by the engine, so prototypes are never mutated).
struct ExperimentGrid {
  std::vector<PolicyKind> policies;
  std::vector<const GroupingResult*> groupings;
  std::vector<const RewardFunction*> rewards;
  std::vector<const Learner*> learners;
  /// Per-trial EngineOptions::pruning values. nullptr entries mean "no
  /// override" (the shared EngineOptions::pruning applies) — the prune-off
  /// arm of a prune-off/prune-on A/B.
  std::vector<const FeaturePrunerOptions*> prunings;
  std::vector<uint64_t> seeds;

  /// Number of trials the grid expands to.
  size_t size() const {
    return policies.size() * groupings.size() * rewards.size() *
           learners.size() * std::max<size_t>(prunings.size(), 1) *
           seeds.size();
  }

  [[nodiscard]] Status Validate() const;
};

/// One cell of the grid, in row-major expansion order.
struct TrialSpec {
  size_t index = 0;  // linear grid index; results are returned in this order
  PolicyKind policy = PolicyKind::kEpsilonGreedy;
  const GroupingResult* grouping = nullptr;
  const RewardFunction* reward = nullptr;
  const Learner* learner = nullptr;
  /// The prunings-axis cell (null = no override). `pruning_index` is the
  /// position within the axis — it disambiguates labels, since distinct
  /// FeaturePrunerOptions have no short printable form.
  const FeaturePrunerOptions* pruning = nullptr;
  size_t pruning_index = 0;
  uint64_t seed = 0;

  /// "egreedy/kmeans32/label/nb/s3"-style display label; trials with a
  /// pruning override append "/prune@<axis index>".
  std::string Label() const;
};

struct TrialResult {
  TrialSpec spec;
  RunResult run;
  /// Snapshot of the shared cache's cumulative counters taken when this
  /// trial finished (all zeros when the driver has no cache). With
  /// concurrent trials the snapshot point is scheduling-dependent — use it
  /// for reporting, not for assertions; RunResult itself is deterministic.
  FeatureCacheStats cache;
};

struct ExperimentDriverOptions {
  /// Worker threads for trial execution; 0 means hardware concurrency.
  size_t num_threads = 1;
  /// Engine configuration shared by every trial; `seed` and
  /// `feature_cache` are overridden per the grid/driver.
  EngineOptions engine;
  /// Optional shared feature memo (borrowed, thread-safe; must outlive the
  /// driver). Trials of the same pipeline hit each other's extractions,
  /// which changes wall-clock time only — never results. The driver wraps
  /// it in one shared ExtractionService that every trial engine borrows,
  /// so `engine.feature_cache` must stay null.
  FeatureCache* cache = nullptr;
  /// Speculative prefetch shared by every trial (wall-clock-only; see
  /// ExtractionService). Requires `cache` — speculation without a cache
  /// has nowhere to put results and is silently disabled.
  PrefetchOptions prefetch;
  /// Optional persistent second cache tier shared by every trial (borrowed,
  /// thread-safe; must outlive the driver). Wall-clock-only, like `cache`;
  /// `engine.feature_store` must stay null.
  PersistentFeatureStore* store = nullptr;
  /// Streaming ingestion shared by every trial (both borrowed, both or
  /// neither; must outlive the driver). The groupings axis must then hold
  /// the incremental grouper's GroupBase result. The source is const and
  /// the grouper is cloned inside each engine run, so concurrent trials
  /// share the prototypes safely.
  const ScheduledCorpusSource* stream = nullptr;
  const IncrementalGrouper* incremental_grouper = nullptr;
};

/// Executes experiment grids over one (corpus, pipeline) workload on a
/// thread pool. Each trial is an independent ZombieEngine::Run deriving
/// every random draw from its own grid seed and writing to its own result
/// slot, so the returned vector is bit-identical at any thread count — the
/// property the determinism tests pin down.
class ExperimentDriver {
 public:
  /// Both pointers are borrowed and must outlive the driver. The driver
  /// owns one ExtractionService over (pipeline, options.cache,
  /// options.prefetch) shared by all trials; outstanding speculation is
  /// cancelled and drained when the driver is destroyed.
  ExperimentDriver(const Corpus* corpus, const FeaturePipeline* pipeline,
                   ExperimentDriverOptions options = {});

  /// Runs every trial of the grid; returns results in grid order, or the
  /// first validation/worker failure by trial index.
  StatusOr<std::vector<TrialResult>> RunGrid(const ExperimentGrid& grid) const;

  /// Full-scan baseline runs (random order, or sequential when
  /// `sequential`), one per seed, also executed on the pool.
  std::vector<RunResult> RunScanBaselines(const std::vector<uint64_t>& seeds,
                                          const Learner& learner_prototype,
                                          bool sequential = false) const;

  /// Resolved worker count (after the 0 = hardware default).
  size_t num_threads() const { return num_threads_; }

  const ExperimentDriverOptions& options() const { return options_; }

  /// The shared extraction path (never null after construction).
  ExtractionService* extraction_service() const { return service_.get(); }

 private:
  const Corpus* corpus_;
  const FeaturePipeline* pipeline_;
  ExperimentDriverOptions options_;
  size_t num_threads_;
  std::unique_ptr<ExtractionService> service_;
};

}  // namespace zombie

#endif  // ZOMBIE_CORE_EXPERIMENT_DRIVER_H_
