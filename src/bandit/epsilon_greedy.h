#ifndef ZOMBIE_BANDIT_EPSILON_GREEDY_H_
#define ZOMBIE_BANDIT_EPSILON_GREEDY_H_

#include "bandit/policy.h"

namespace zombie {

/// ε-greedy over windowed reward means — the paper's workhorse policy.
/// Unpulled arms are tried first (optimistic initialization); then, with
/// probability ε, a uniform active arm; otherwise the active arm with the
/// best recency-weighted mean. ε stays constant: the Zombie loop is
/// non-stationary, so the policy relies on windowed means, not on a decay.
class EpsilonGreedyPolicy : public BanditPolicy {
 public:
  /// Exploration probability ε.
  static constexpr double kEpsilon = 0.1;

  size_t SelectArm(const ArmStats& stats, Rng* rng) override;
  std::string name() const override;
  std::unique_ptr<BanditPolicy> Clone() const override;
};

}  // namespace zombie

#endif  // ZOMBIE_BANDIT_EPSILON_GREEDY_H_
