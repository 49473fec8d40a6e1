#ifndef ZOMBIE_CORE_BASELINES_H_
#define ZOMBIE_CORE_BASELINES_H_

#include "core/engine.h"

namespace zombie {

/// The paper's comparison points, expressed through the same engine so all
/// cost accounting is identical:
///  - sequential scan: one group in corpus order, round-robin (i.e. "just
///    run the feature code over the file"),
///  - random scan: one shuffled group (the strongest simple baseline),
/// each with the reward signal zeroed (nothing to steer).

/// Runs a sequential full-order scan. Early stopping follows
/// engine.options().stop — pass a StopRule with plateau disabled for the
/// classic "process everything" behavior.
RunResult RunSequentialBaseline(const ZombieEngine& engine,
                                const Learner& learner_prototype);

/// Runs a random-order scan.
RunResult RunRandomBaseline(const ZombieEngine& engine,
                            const Learner& learner_prototype);

/// The practitioner's shortcut baseline: featurize only a uniform random
/// sample of `sample_size` items, train, evaluate — no adaptivity, no
/// convergence detection. Cheap but blind: on skewed tasks the sample must
/// be large to contain enough positives. (Implemented as a random scan
/// with a hard item budget.)
RunResult RunFixedSampleBaseline(const ZombieEngine& engine,
                                 const Learner& learner_prototype,
                                 size_t sample_size);

/// Convenience: engine options whose stop rule only triggers on corpus
/// exhaustion or `max_items` (plateau and decline disabled) — the
/// "full scan" configuration of the baselines.
EngineOptions FullScanOptions(EngineOptions base);

}  // namespace zombie

#endif  // ZOMBIE_CORE_BASELINES_H_
