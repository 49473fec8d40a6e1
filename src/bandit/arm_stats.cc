#include "bandit/arm_stats.h"

#include "util/logging.h"

namespace zombie {

ArmStats::ArmStats(size_t num_arms) : arms_(num_arms), num_active_(num_arms) {
  ZCHECK_GE(num_arms, 1u);
}

void ArmStats::Record(size_t arm, double reward) {
  ZCHECK_LT(arm, arms_.size());
  Arm& a = arms_[arm];
  ++a.pulls;
  ++total_pulls_;
  a.total_reward += reward;
  a.windowed.Add(reward);
}

void ArmStats::Deactivate(size_t arm) {
  ZCHECK_LT(arm, arms_.size());
  if (arms_[arm].active) {
    arms_[arm].active = false;
    --num_active_;
  }
}

size_t ArmStats::AddArm() {
  arms_.emplace_back();
  ++num_active_;
  return arms_.size() - 1;
}

void ArmStats::Reactivate(size_t arm) {
  ZCHECK_LT(arm, arms_.size());
  if (!arms_[arm].active) {
    arms_[arm].active = true;
    ++num_active_;
  }
}

bool ArmStats::active(size_t arm) const {
  ZCHECK_LT(arm, arms_.size());
  return arms_[arm].active;
}

size_t ArmStats::pulls(size_t arm) const {
  ZCHECK_LT(arm, arms_.size());
  return arms_[arm].pulls;
}

double ArmStats::mean(size_t arm) const {
  ZCHECK_LT(arm, arms_.size());
  const Arm& a = arms_[arm];
  if (a.pulls == 0) return kPriorMean;
  return a.windowed.mean();
}

double ArmStats::total_reward(size_t arm) const {
  ZCHECK_LT(arm, arms_.size());
  return arms_[arm].total_reward;
}

}  // namespace zombie
