#ifndef ZOMBIE_CORE_CONFIG_H_
#define ZOMBIE_CORE_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <limits>

#include "ml/feature_pruner.h"
#include "ml/metrics.h"
#include "util/status.h"

namespace zombie {

class ObsContext;

/// When the inner loop ends. Rules combine with OR: the first satisfied
/// rule stops the run. Exhausting the corpus always stops it.
struct StopRule {
  /// Hard budget on processed items.
  size_t max_items = std::numeric_limits<size_t>::max();
  /// Stop when the quality estimate first reaches this value (< 0: off).
  double target_quality = -1.0;
  /// Stop when the quality estimate plateaus (the paper's rule; the
  /// window and floor are fixed in core/engine.cc).
  bool plateau_enabled = true;
  /// Stop when the quality estimate has clearly peaked: every one of the
  /// last `decline_window` evaluations sat more than `decline_margin`
  /// below the best quality seen. Recency-sensitive learners (SGD) drift
  /// once the informative groups are drained; without this rule such runs
  /// never "converge" because the curve declines instead of flattening.
  bool decline_enabled = true;
  size_t decline_window = 12;
  double decline_margin = 0.08;
  /// Never stop (except on budget/exhaustion) before this many items.
  size_t min_items = 300;
};

/// Engine knobs independent of the pluggable components (policy, grouper,
/// learner, reward are passed as objects; see ZombieEngine::Run).
struct EngineOptions {
  uint64_t seed = 1;
  /// Retrain-evaluate cadence b: quality is measured on the holdout every
  /// `eval_every` processed items.
  size_t eval_every = 25;
  /// Number of corpus items sampled (and featurized up front) as the
  /// quality-estimation holdout. Excluded from training forever.
  size_t holdout_size = 400;
  /// Target positive-class share of the holdout. Rare-class F1 needs
  /// enough positives to be measurable (a 5%-positive holdout of 400 items
  /// has 20 positives, so F1 moves in ~5% jumps and plateau detection
  /// misfires). Stratifying the holdout stabilizes the quality signal; set
  /// to a negative value for natural (unstratified) sampling.
  double holdout_positive_fraction = 0.25;
  /// Probe subset size used by probe-requiring rewards (improvement).
  size_t probe_size = 50;
  QualityMetric metric = QualityMetric::kF1;
  /// Evaluate holdout quality at the F1-optimal score threshold instead of
  /// thresholding at zero (EvaluateLearnerTuned). Decouples the quality
  /// signal from class-prior miscalibration caused by skewed selection.
  bool tune_threshold = false;
  StopRule stop;
  /// Cost-aware selection: divide each item's reward by its extraction
  /// cost relative to the corpus mean before feeding the bandit. The
  /// bandit then maximizes usefulness per unit *time* instead of per
  /// item — with heterogeneous item costs, cheap useful groups win.
  bool cost_aware_rewards = false;
  /// Optional observability sinks (borrowed, thread-safe; obs/obs.h). When
  /// set, the engine emits trace spans, metric series, and per-pull
  /// decision records into whichever sinks the context enables. Never
  /// affects results: RunResult is byte-identical with obs on or off
  /// (asserted by tests and bench_obs_overhead), and the disabled path
  /// (nullptr) costs only null checks.
  ObsContext* obs = nullptr;
  /// Online feature pruning (ml/feature_pruner.h): off by default, and off
  /// must be a perfect no-op — fingerprints and decision logs byte-identical
  /// to a build without the pruner. When enabled, the mask freezes at a
  /// holdout-eval boundary from virtual-time-visible state only, so results
  /// are still byte-identical across thread counts, cache/store modes, and
  /// forced SIMD levels (only wall-clock and — by design — the post-freeze
  /// learning trajectory change versus pruning off).
  FeaturePrunerOptions pruning;

  /// Validates knob ranges.
  [[nodiscard]] Status Validate() const;
};

}  // namespace zombie

#endif  // ZOMBIE_CORE_CONFIG_H_
