#include "bandit/policy.h"


#include "bandit/epsilon_greedy.h"
#include "bandit/exp3.h"
#include "bandit/round_robin.h"
#include "bandit/sliding_ucb.h"
#include "bandit/softmax.h"
#include "bandit/thompson.h"
#include "bandit/ucb1.h"
#include "bandit/uniform_random.h"
#include "util/logging.h"

namespace zombie {

void BanditPolicy::ScoreArms(const ArmStats& stats,
                             std::vector<double>* out) const {
  out->assign(stats.num_arms(), 0.0);
  for (size_t a = 0; a < stats.num_arms(); ++a) {
    if (stats.active(a)) (*out)[a] = stats.mean(a);
  }
}

const char* PolicyKindName(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kRoundRobin:
      return "roundrobin";
    case PolicyKind::kUniformRandom:
      return "random";
    case PolicyKind::kEpsilonGreedy:
      return "egreedy";
    case PolicyKind::kUcb1:
      return "ucb1";
    case PolicyKind::kSlidingUcb:
      return "swucb";
    case PolicyKind::kThompson:
      return "thompson";
    case PolicyKind::kExp3:
      return "exp3";
    case PolicyKind::kSoftmax:
      return "softmax";
  }
  return "?";
}

std::unique_ptr<BanditPolicy> MakePolicy(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kRoundRobin:
      return std::make_unique<RoundRobinPolicy>();
    case PolicyKind::kUniformRandom:
      return std::make_unique<UniformRandomPolicy>();
    case PolicyKind::kEpsilonGreedy:
      return std::make_unique<EpsilonGreedyPolicy>();
    case PolicyKind::kUcb1:
      return std::make_unique<Ucb1Policy>();
    case PolicyKind::kSlidingUcb:
      return std::make_unique<SlidingUcbPolicy>();
    case PolicyKind::kThompson:
      return std::make_unique<ThompsonPolicy>();
    case PolicyKind::kExp3:
      return std::make_unique<Exp3Policy>();
    case PolicyKind::kSoftmax:
      return std::make_unique<SoftmaxPolicy>();
  }
  ZCHECK(false) << "unknown policy kind";
  return nullptr;
}

namespace bandit_internal {

size_t PickUniformActive(const ArmStats& stats, Rng* rng) {
  ZCHECK_GT(stats.num_active(), 0u);
  size_t target = static_cast<size_t>(rng->NextBelow(stats.num_active()));
  for (size_t a = 0; a < stats.num_arms(); ++a) {
    if (!stats.active(a)) continue;
    if (target == 0) return a;
    --target;
  }
  ZCHECK(false) << "active arm count inconsistent";
  return 0;
}

size_t FirstUnpulledActive(const ArmStats& stats) {
  for (size_t a = 0; a < stats.num_arms(); ++a) {
    if (stats.active(a) && stats.pulls(a) == 0) return a;
  }
  return stats.num_arms();
}

}  // namespace bandit_internal
}  // namespace zombie
