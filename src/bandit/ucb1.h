#ifndef ZOMBIE_BANDIT_UCB1_H_
#define ZOMBIE_BANDIT_UCB1_H_

#include "bandit/policy.h"

namespace zombie {

/// UCB1 (Auer et al.): argmax of windowed mean + c * sqrt(2 ln N / n_i).
/// Unpulled active arms have an infinite index and are tried first.
class Ucb1Policy : public BanditPolicy {
 public:
  /// Exploration coefficient c (the textbook setting).
  static constexpr double kExploration = 1.0;

  size_t SelectArm(const ArmStats& stats, Rng* rng) override;
  /// UCB indices (mean + exploration bonus); unpulled active arms report
  /// the optimistic sentinel 1e9 that mirrors their try-first priority.
  void ScoreArms(const ArmStats& stats, std::vector<double>* out)
      const override;
  std::string name() const override;
  std::unique_ptr<BanditPolicy> Clone() const override;
};

}  // namespace zombie

#endif  // ZOMBIE_BANDIT_UCB1_H_
