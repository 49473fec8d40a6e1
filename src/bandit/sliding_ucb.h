#ifndef ZOMBIE_BANDIT_SLIDING_UCB_H_
#define ZOMBIE_BANDIT_SLIDING_UCB_H_

#include <deque>
#include <vector>

#include "bandit/policy.h"

namespace zombie {

/// Sliding-window UCB (Garivier & Moulines): UCB indices computed only
/// over the last kWindow pulls across all arms, so the policy tracks
/// non-stationary arm values — a natural fit for the Zombie loop, where a
/// group's usefulness decays as its good items are consumed.
class SlidingUcbPolicy : public BanditPolicy {
 public:
  /// Horizon of pulls considered (across all arms).
  static constexpr size_t kWindow = 200;
  /// Exploration coefficient.
  static constexpr double kExploration = 0.6;

  void Reset(size_t num_arms) override;
  size_t SelectArm(const ArmStats& stats, Rng* rng) override;
  /// Windowed UCB indices; active arms absent from the window report the
  /// optimistic sentinel 1e9 (they are tried first).
  void ScoreArms(const ArmStats& stats, std::vector<double>* out)
      const override;
  void Observe(size_t arm, double reward) override;
  /// Appends zeroed window counters: an arm with no pulls in the window
  /// has an infinite index, so a newborn arm is tried at the next
  /// opportunity — no extra optimism needed.
  void OnArmAdded(size_t arm) override;
  std::string name() const override;
  std::unique_ptr<BanditPolicy> Clone() const override;

  /// Pulls of `arm` currently inside the window (testing accessor).
  size_t WindowPulls(size_t arm) const;

 private:
  /// (arm, reward) of the last kWindow pulls.
  std::deque<std::pair<size_t, double>> history_;
  std::vector<size_t> window_pulls_;
  std::vector<double> window_reward_;
};

}  // namespace zombie

#endif  // ZOMBIE_BANDIT_SLIDING_UCB_H_
