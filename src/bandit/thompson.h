#ifndef ZOMBIE_BANDIT_THOMPSON_H_
#define ZOMBIE_BANDIT_THOMPSON_H_

#include <vector>

#include "bandit/policy.h"

namespace zombie {

/// Thompson sampling with Beta posteriors over [0,1]-valued rewards.
/// Fractional rewards contribute fractional pseudo-counts. A per-step
/// discount keeps the posterior tracking non-stationary group value.
class ThompsonPolicy : public BanditPolicy {
 public:
  /// Beta(kPriorAlpha, kPriorBeta) prior of every arm.
  static constexpr double kPriorAlpha = 1.0;
  static constexpr double kPriorBeta = 1.0;
  /// Multiplied into every arm's pseudo-counts at each Observe: forgets
  /// old evidence, halving it every ~138 steps.
  static constexpr double kDiscount = 0.995;

  void Reset(size_t num_arms) override;
  size_t SelectArm(const ArmStats& stats, Rng* rng) override;
  /// Beta posterior means (alpha+s)/(alpha+beta+s+f) — the expectation the
  /// per-pull draws in SelectArm scatter around.
  void ScoreArms(const ArmStats& stats, std::vector<double>* out)
      const override;
  void Observe(size_t arm, double reward) override;
  /// Appends an arm at the bare prior (zero pseudo-counts): the widest
  /// posterior in the pool, so Thompson's own draws explore it promptly.
  void OnArmAdded(size_t arm) override;
  std::string name() const override { return "thompson"; }
  std::unique_ptr<BanditPolicy> Clone() const override;

 private:
  std::vector<double> success_;  // pseudo successes per arm
  std::vector<double> failure_;  // pseudo failures per arm
};

}  // namespace zombie

#endif  // ZOMBIE_BANDIT_THOMPSON_H_
