#include "bandit/epsilon_greedy.h"

#include <memory>

#include "util/logging.h"
#include "util/string_util.h"

namespace zombie {

size_t EpsilonGreedyPolicy::SelectArm(const ArmStats& stats, Rng* rng) {
  ZCHECK_GT(stats.num_active(), 0u);
  size_t unpulled = bandit_internal::FirstUnpulledActive(stats);
  if (unpulled < stats.num_arms()) return unpulled;
  if (rng->NextBernoulli(kEpsilon)) {
    return bandit_internal::PickUniformActive(stats, rng);
  }
  double best = -1.0;
  size_t best_arm = stats.num_arms();
  for (size_t a = 0; a < stats.num_arms(); ++a) {
    if (!stats.active(a)) continue;
    double m = stats.mean(a);
    if (m > best) {
      best = m;
      best_arm = a;
    }
  }
  ZCHECK_LT(best_arm, stats.num_arms());
  return best_arm;
}

std::string EpsilonGreedyPolicy::name() const {
  return StrFormat("egreedy(%.2f)", kEpsilon);
}

std::unique_ptr<BanditPolicy> EpsilonGreedyPolicy::Clone() const {
  return std::make_unique<EpsilonGreedyPolicy>();
}

}  // namespace zombie
