#ifndef ZOMBIE_BANDIT_SOFTMAX_H_
#define ZOMBIE_BANDIT_SOFTMAX_H_

#include "bandit/policy.h"

namespace zombie {

/// Boltzmann exploration: P(arm) ∝ exp(mean / temperature) over active
/// arms, using the windowed means from ArmStats.
class SoftmaxPolicy : public BanditPolicy {
 public:
  /// Lower temperature → greedier.
  static constexpr double kTemperature = 0.1;

  size_t SelectArm(const ArmStats& stats, Rng* rng) override;
  /// Normalized Boltzmann choice probabilities over active arms.
  void ScoreArms(const ArmStats& stats, std::vector<double>* out)
      const override;
  std::string name() const override;
  std::unique_ptr<BanditPolicy> Clone() const override;
};

}  // namespace zombie

#endif  // ZOMBIE_BANDIT_SOFTMAX_H_
