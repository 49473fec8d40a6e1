#ifndef ZOMBIE_CORE_RUN_SPEC_H_
#define ZOMBIE_CORE_RUN_SPEC_H_

#include <vector>

#include "bandit/policy.h"
#include "core/run_result.h"
#include "index/grouper.h"
#include "ml/learner.h"

namespace zombie {

class RewardFunction;
class ScheduledCorpusSource;
class IncrementalGrouper;

/// Everything that parameterizes one ZombieEngine::Run, with named fields
/// instead of a positional parameter list. The four component pointers are
/// borrowed for the duration of the call and cloned inside the engine, so
/// the engine never mutates caller state.
///
///   RunSpec spec(grouping, policy, learner, reward);
///   spec.warm_start = &previous.arms;
///   RunResult r = engine.Run(spec);
struct RunSpec {
  RunSpec(const GroupingResult& grouping_in, const BanditPolicy& policy_in,
          const Learner& learner_in, const RewardFunction& reward_in)
      : grouping(&grouping_in),
        policy(&policy_in),
        learner(&learner_in),
        reward(&reward_in) {}

  const GroupingResult* grouping;
  const BanditPolicy* policy;
  const Learner* learner;
  const RewardFunction* reward;

  /// Shuffle within-group item order (false = preserve grouping order,
  /// used by the sequential-scan baseline).
  bool shuffle_groups = true;

  /// Optional per-arm knowledge from a previous run over the *same
  /// grouping* (e.g. the prior feature revision in a session): each arm is
  /// seeded with pseudo-observations of its previous mean reward. Ignored
  /// when the arm count does not match the grouping.
  const std::vector<ArmSummary>* warm_start = nullptr;

  /// Streaming ingestion. When `stream` is set, `grouping` must be the
  /// base grouping returned by `incremental_grouper->GroupBase(corpus,
  /// stream->base_size())` (same corpus as the engine's), and both
  /// pointers must be non-null: the engine clones the primed grouper per
  /// run, restricts the holdout sample to the offline base prefix, and at
  /// every holdout-eval boundary consumes the arrivals whose virtual
  /// timestamp has passed — appending documents to the index, splitting or
  /// opening groups, and registering each new group with the bandit via
  /// BanditPolicy::OnArmAdded. Null (the default) is exactly the offline
  /// engine, byte for byte.
  const ScheduledCorpusSource* stream = nullptr;
  /// Primed prototype (GroupBase already called); cloned per run so
  /// repeated and concurrent runs share it safely. Borrowed.
  const IncrementalGrouper* incremental_grouper = nullptr;
};

}  // namespace zombie

#endif  // ZOMBIE_CORE_RUN_SPEC_H_
