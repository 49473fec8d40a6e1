#include "core/baselines.h"

#include "bandit/round_robin.h"
#include "core/reward.h"

namespace zombie {

RunResult RunSequentialBaseline(const ZombieEngine& engine,
                                const Learner& learner_prototype) {
  GroupingResult grouping = MakeSingleGroupGrouping(engine.corpus().size());
  grouping.method = "sequential";
  RoundRobinPolicy policy;
  ZeroReward reward;
  RunSpec spec(grouping, policy, learner_prototype, reward);
  spec.shuffle_groups = false;
  RunResult r = engine.Run(spec);
  r.policy_name = "sequential";
  return r;
}

RunResult RunRandomBaseline(const ZombieEngine& engine,
                            const Learner& learner_prototype) {
  GroupingResult grouping = MakeSingleGroupGrouping(engine.corpus().size());
  grouping.method = "randomscan";
  RoundRobinPolicy policy;
  ZeroReward reward;
  RunResult r = engine.Run(RunSpec(grouping, policy, learner_prototype,
                                   reward));
  r.policy_name = "randomscan";
  return r;
}

RunResult RunFixedSampleBaseline(const ZombieEngine& engine,
                                 const Learner& learner_prototype,
                                 size_t sample_size) {
  EngineOptions opts = FullScanOptions(engine.options());
  opts.stop.max_items = sample_size;
  // Rebuild the engine with the tightened budget over the same service.
  ZombieEngine budgeted(&engine.corpus(), engine.extraction_service(), opts);
  RunResult r = RunRandomBaseline(budgeted, learner_prototype);
  r.policy_name = "fixedsample";
  return r;
}

EngineOptions FullScanOptions(EngineOptions base) {
  base.stop.plateau_enabled = false;
  base.stop.decline_enabled = false;
  base.stop.target_quality = -1.0;
  return base;
}

}  // namespace zombie
