#ifndef ZOMBIE_CORE_ENGINE_H_
#define ZOMBIE_CORE_ENGINE_H_

#include <memory>
#include <vector>

#include "bandit/policy.h"
#include "core/config.h"
#include "core/reward.h"
#include "core/run_result.h"
#include "core/run_spec.h"
#include "data/corpus.h"
#include "featureeng/extraction_service.h"
#include "featureeng/pipeline.h"
#include "index/grouper.h"
#include "ml/learner.h"

namespace zombie {

/// The Zombie inner loop (the paper's core contribution).
///
/// Given an indexed corpus, the engine repeatedly:
///  1. asks the bandit policy for an index group (arm),
///  2. pops that group's next unprocessed item,
///  3. runs the feature pipeline on it — the expensive step, charged to the
///     virtual clock at the item's extraction cost × the pipeline's cost
///     factor — and obtains its label,
///  4. trains the incremental learner on the example,
///  5. scores the item's usefulness with the reward function and feeds the
///     bandit,
///  6. every `eval_every` items, measures quality on the fixed holdout and
///     applies the stop rules (plateau / target / budget).
///
/// With RunSpec::stream set, the run is *streaming*: only the offline base
/// prefix exists up front, and at each holdout-eval boundary the engine
/// consumes the arrivals whose virtual timestamp has passed — appending
/// documents to the index, splitting or opening groups via the
/// incremental grouper, and registering each new group as a bandit arm.
///
/// A run is fully deterministic given (corpus, grouping, options.seed, and
/// the arrival schedule when streaming); wall-clock accelerations (feature
/// cache, persistent store) never change RunResult or the decision log.
class ZombieEngine {
 public:
  /// Both pointers are borrowed and must outlive the engine. Extraction
  /// goes through an engine-owned ExtractionService over `pipeline` with
  /// no cache or store tier.
  ZombieEngine(const Corpus* corpus, const FeaturePipeline* pipeline,
               EngineOptions options = {});

  /// Extraction routed through a caller-owned service: the only way to
  /// attach a FeatureCache or PersistentFeatureStore (the session and the
  /// experiment driver share one across runs). `service` is borrowed and
  /// must outlive the engine.
  ZombieEngine(const Corpus* corpus, ExtractionService* service,
               EngineOptions options = {});

  /// Executes one run as described by `spec` (see run_spec.h for the
  /// field-by-field contract). The spec's components are cloned, so the
  /// engine never mutates caller state and repeated Run() calls are
  /// independent.
  RunResult Run(const RunSpec& spec) const;

  const EngineOptions& options() const { return options_; }
  const Corpus& corpus() const { return *corpus_; }
  /// The service every extraction goes through; never null.
  ExtractionService* extraction_service() const { return service_; }

 private:
  const Corpus* corpus_;
  /// Set by the pipeline constructor only; `service_` points at it.
  std::unique_ptr<ExtractionService> owned_service_;
  ExtractionService* service_;
  EngineOptions options_;
};

/// A one-group GroupingResult covering docs [0, corpus_size) in order;
/// building block of the scan baselines.
GroupingResult MakeSingleGroupGrouping(size_t corpus_size);

}  // namespace zombie

#endif  // ZOMBIE_CORE_ENGINE_H_
