#ifndef ZOMBIE_BANDIT_EXP3_H_
#define ZOMBIE_BANDIT_EXP3_H_

#include <vector>

#include "bandit/policy.h"

namespace zombie {

/// Exp3 (Auer et al.) for adversarial/non-stationary rewards: exponential
/// weights with importance-weighted updates. Rewards must be in [0,1]
/// (clamped). Weight overflow is prevented by periodic renormalization.
class Exp3Policy : public BanditPolicy {
 public:
  /// Exploration mix gamma in (0,1].
  static constexpr double kGamma = 0.1;

  void Reset(size_t num_arms) override;
  size_t SelectArm(const ArmStats& stats, Rng* rng) override;
  /// The gamma-mixed choice probabilities SelectArm would draw from.
  void ScoreArms(const ArmStats& stats, std::vector<double>* out)
      const override;
  void Observe(size_t arm, double reward) override;
  /// Appends the new arm at the maximum active weight: a newborn arm
  /// starts as the (joint) most attractive choice, the exponential-weights
  /// analogue of optimistic initialization — and deterministic, unlike
  /// seeding at the mean.
  void OnArmAdded(size_t arm) override;
  std::string name() const override { return "exp3"; }
  std::unique_ptr<BanditPolicy> Clone() const override;

 private:
  std::vector<double> weights_;
  /// Probability the last SelectArm assigned to the arm it returned; needed
  /// by the importance-weighted update in Observe.
  double last_probability_ = 1.0;
  size_t last_arm_ = 0;
  size_t num_active_last_ = 1;
};

}  // namespace zombie

#endif  // ZOMBIE_BANDIT_EXP3_H_
