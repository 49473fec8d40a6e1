#ifndef ZOMBIE_BANDIT_ARM_STATS_H_
#define ZOMBIE_BANDIT_ARM_STATS_H_

#include <cstddef>
#include <vector>

#include "util/stats.h"

namespace zombie {

/// Book-keeping shared by all bandit policies: pulls, rewards, and the
/// active/exhausted flag per arm (an arm dies when its index group runs
/// out of unprocessed items).
class ArmStats {
 public:
  /// Sliding-window size of the reward mean. Non-stationarity is intrinsic
  /// here: a group's usefulness *decays* as its good items get consumed, so
  /// a recency-weighted estimate tracks the current value of an arm much
  /// better than the lifetime mean.
  static constexpr size_t kWindow = 50;
  /// Estimate reported for never-pulled arms (optimistic initialization:
  /// policies that exploit means will still try everything once).
  static constexpr double kPriorMean = 1.0;

  explicit ArmStats(size_t num_arms);

  /// Records a reward for an arm (also counts the pull).
  void Record(size_t arm, double reward);

  /// Marks an arm exhausted; policies must not select it again.
  void Deactivate(size_t arm);

  /// Appends a fresh, active arm (streaming ingestion: a group split or a
  /// new group); returns its index. The caller must notify the policy via
  /// BanditPolicy::OnArmAdded immediately after.
  size_t AddArm();

  /// Revives an exhausted arm whose group received new documents. No-op
  /// when already active; reward history is kept (the arm is the same
  /// group, only its supply was interrupted).
  void Reactivate(size_t arm);

  bool active(size_t arm) const;
  size_t num_arms() const { return arms_.size(); }
  size_t num_active() const { return num_active_; }
  size_t total_pulls() const { return total_pulls_; }

  size_t pulls(size_t arm) const;
  /// Mean of the arm's last kWindow rewards (kPriorMean before the first
  /// pull).
  double mean(size_t arm) const;
  double total_reward(size_t arm) const;

 private:
  struct Arm {
    size_t pulls = 0;
    double total_reward = 0.0;
    WindowedMean windowed{kWindow};
    bool active = true;
  };

  std::vector<Arm> arms_;
  size_t num_active_;
  size_t total_pulls_ = 0;
};

}  // namespace zombie

#endif  // ZOMBIE_BANDIT_ARM_STATS_H_
