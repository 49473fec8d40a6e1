#include "bandit/thompson.h"

#include <algorithm>
#include <memory>

#include "util/logging.h"

namespace zombie {

void ThompsonPolicy::Reset(size_t num_arms) {
  success_.assign(num_arms, 0.0);
  failure_.assign(num_arms, 0.0);
}

size_t ThompsonPolicy::SelectArm(const ArmStats& stats, Rng* rng) {
  ZCHECK_GT(stats.num_active(), 0u);
  ZCHECK_EQ(success_.size(), stats.num_arms()) << "Reset() not called";
  double best = -1.0;
  size_t best_arm = stats.num_arms();
  for (size_t a = 0; a < stats.num_arms(); ++a) {
    if (!stats.active(a)) continue;
    double draw = rng->NextBeta(kPriorAlpha + success_[a],
                                kPriorBeta + failure_[a]);
    if (draw > best) {
      best = draw;
      best_arm = a;
    }
  }
  ZCHECK_LT(best_arm, stats.num_arms());
  return best_arm;
}

void ThompsonPolicy::ScoreArms(const ArmStats& stats,
                               std::vector<double>* out) const {
  out->assign(stats.num_arms(), 0.0);
  if (success_.size() != stats.num_arms()) return;  // before Reset()
  for (size_t a = 0; a < stats.num_arms(); ++a) {
    if (!stats.active(a)) continue;
    double alpha = kPriorAlpha + success_[a];
    double beta = kPriorBeta + failure_[a];
    (*out)[a] = alpha / (alpha + beta);
  }
}

void ThompsonPolicy::Observe(size_t arm, double reward) {
  ZCHECK_LT(arm, success_.size());
  double r = std::clamp(reward, 0.0, 1.0);
  for (size_t a = 0; a < success_.size(); ++a) {
    success_[a] *= kDiscount;
    failure_[a] *= kDiscount;
  }
  success_[arm] += r;
  failure_[arm] += 1.0 - r;
}

void ThompsonPolicy::OnArmAdded(size_t arm) {
  ZCHECK_EQ(arm, success_.size()) << "arms must be appended in order";
  success_.push_back(0.0);
  failure_.push_back(0.0);
}

std::unique_ptr<BanditPolicy> ThompsonPolicy::Clone() const {
  return std::make_unique<ThompsonPolicy>();
}

}  // namespace zombie
