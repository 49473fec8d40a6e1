#ifndef ZOMBIE_OBS_DECISION_LOG_H_
#define ZOMBIE_OBS_DECISION_LOG_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"
#include "util/thread_annotations.h"

namespace zombie {

/// What the feature-extraction memo did for one pull.
enum class CacheOutcome : int8_t {
  kDisabled = -1,  // no cache configured for the run
  kMiss = 0,
  kHit = 1,
};

const char* CacheOutcomeName(CacheOutcome outcome);

/// Everything the engine knew and decided at one bandit pull. Wall time
/// never appears here. Every field except `cache` is a deterministic
/// function of (corpus, grouping, options.seed), so logs are byte-identical
/// across repeat runs and worker-thread counts (the property
/// obs_decision_log_test pins) whenever no FeatureCache is shared between
/// concurrent runs. `cache` reports what the memory cache held at the
/// pull: when concurrent trials share one, whichever trial extracts a
/// document first gets the miss, so the hit/miss split can change from
/// run to run at more than one worker thread (RunResult does not).
struct DecisionRecord {
  uint64_t iteration = 0;  // 0-based pull index within the run
  uint32_t arm = 0;
  uint32_t doc_id = 0;
  double reward = 0.0;
  CacheOutcome cache = CacheOutcome::kDisabled;
  int64_t extraction_cost_micros = 0;  // the pull's virtual extraction charge
  int64_t virtual_micros = 0;          // virtual clock after the pull
  /// The policy's per-arm preference scores at selection time
  /// (BanditPolicy::ScoreArms): posterior means, UCB indices, or choice
  /// probabilities depending on the policy.
  std::vector<double> arm_scores;
};

/// One online-pruning freeze, recorded at the holdout-eval boundary where
/// the mask froze. Every field is a deterministic function of (corpus,
/// grouping, options) — never of wall time or the cache — so prune lines
/// are byte-identical across thread counts and cache/store modes. Runs
/// with pruning disabled emit no prune lines, so their serialized bytes
/// are unchanged from before this record existed.
struct PruneEvent {
  uint64_t items = 0;          // engine item count at the freeze
  int64_t virtual_micros = 0;  // virtual clock at the freeze
  uint64_t input_dimension = 0;
  uint64_t kept_features = 0;
  uint64_t pruned_features = 0;
};

/// One streaming-ingestion window, recorded at the holdout-eval boundary
/// (or starvation fast-forward) where the engine consumed arrivals. Every
/// field is a deterministic function of (corpus, schedule, options) — the
/// virtual clock gates arrivals, never wall time — so streaming logs are
/// byte-identical across thread counts, cache/store modes, and SIMD
/// levels. Offline runs emit no ingest lines, so their serialized bytes
/// are unchanged from before this record existed.
struct IngestEvent {
  uint64_t items = 0;          // engine item count at the window
  int64_t virtual_micros = 0;  // stream-visible virtual time of the window
  uint64_t docs_added = 0;     // arrivals consumed in this window
  uint64_t new_arms = 0;       // groups opened (splits + new domains)
  uint64_t splits = 0;         // of new_arms, how many came from splits
  uint64_t total_arms = 0;     // arm count after the window
};

/// Structured per-pull log, grouped by run label. Thread-safe at run
/// granularity: each engine run collects its records locally and commits
/// them with one AppendRun; serialization iterates runs in label order, so
/// output bytes do not depend on commit order (and therefore not on the
/// experiment driver's thread count).
class DecisionLog {
 public:
  DecisionLog() = default;
  DecisionLog(const DecisionLog&) = delete;
  DecisionLog& operator=(const DecisionLog&) = delete;

  /// Commits one run's records under `run_label` (appends when the label
  /// already exists, e.g. re-running an identical spec).
  void AppendRun(const std::string& run_label,
                 std::vector<DecisionRecord> records) ZOMBIE_EXCLUDES(mu_);

  /// Commits a run's prune freezes (at most one per run today; the vector
  /// keeps the serialization shape uniform). Serialized after the run's
  /// pull records, in order.
  void AppendPruneEvents(const std::string& run_label,
                         std::vector<PruneEvent> events) ZOMBIE_EXCLUDES(mu_);

  /// Commits a run's ingestion windows. Serialized after the run's pull
  /// and prune records, in order.
  void AppendIngestEvents(const std::string& run_label,
                          std::vector<IngestEvent> events)
      ZOMBIE_EXCLUDES(mu_);

  size_t num_runs() const ZOMBIE_EXCLUDES(mu_);
  size_t num_records() const ZOMBIE_EXCLUDES(mu_);

  /// Run labels in serialization (lexicographic) order.
  std::vector<std::string> Labels() const ZOMBIE_EXCLUDES(mu_);

  /// Records for one run label (empty when absent).
  std::vector<DecisionRecord> Records(const std::string& run_label) const
      ZOMBIE_EXCLUDES(mu_);

  /// Prune events for one run label (empty when absent).
  std::vector<PruneEvent> PruneEvents(const std::string& run_label) const
      ZOMBIE_EXCLUDES(mu_);

  /// JSON Lines: one object per record, runs in label order, records in
  /// pull order. Deterministic byte-for-byte for deterministic runs.
  std::string ToJsonl() const;

  [[nodiscard]] Status WriteJsonl(const std::string& path) const;

 private:
  mutable Mutex mu_;
  std::map<std::string, std::vector<DecisionRecord>> runs_
      ZOMBIE_GUARDED_BY(mu_);
  /// Kept separate from runs_ so runs without pruning leave no trace in
  /// the map (and therefore none in the serialized bytes).
  std::map<std::string, std::vector<PruneEvent>> prunes_
      ZOMBIE_GUARDED_BY(mu_);
  /// Same pattern for streaming: offline runs never touch this map, so
  /// their bytes are exactly the pre-streaming format.
  std::map<std::string, std::vector<IngestEvent>> ingests_
      ZOMBIE_GUARDED_BY(mu_);
};

}  // namespace zombie

#endif  // ZOMBIE_OBS_DECISION_LOG_H_
