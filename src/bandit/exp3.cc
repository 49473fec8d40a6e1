#include "bandit/exp3.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "util/logging.h"

namespace zombie {

void Exp3Policy::Reset(size_t num_arms) {
  weights_.assign(num_arms, 1.0);
  last_probability_ = 1.0;
  last_arm_ = 0;
  num_active_last_ = num_arms;
}

size_t Exp3Policy::SelectArm(const ArmStats& stats, Rng* rng) {
  ZCHECK_GT(stats.num_active(), 0u);
  ZCHECK_EQ(weights_.size(), stats.num_arms()) << "Reset() not called";

  // Renormalize so the max weight is 1 (prevents overflow over long runs).
  double max_w = 0.0;
  for (size_t a = 0; a < weights_.size(); ++a) {
    if (stats.active(a)) max_w = std::max(max_w, weights_[a]);
  }
  if (max_w > 1e6) {
    for (double& w : weights_) w /= max_w;
  }

  double total = 0.0;
  size_t active = 0;
  for (size_t a = 0; a < weights_.size(); ++a) {
    if (stats.active(a)) {
      total += weights_[a];
      ++active;
    }
  }
  num_active_last_ = active;
  ZCHECK_GT(total, 0.0);

  std::vector<double> probs(weights_.size(), 0.0);
  double k = static_cast<double>(active);
  for (size_t a = 0; a < weights_.size(); ++a) {
    if (!stats.active(a)) continue;
    probs[a] = (1.0 - kGamma) * weights_[a] / total +
               kGamma / k;
  }
  size_t arm = rng->NextDiscrete(probs);
  if (arm >= probs.size()) arm = bandit_internal::PickUniformActive(stats, rng);
  last_arm_ = arm;
  last_probability_ = std::max(probs[arm], 1e-12);
  return arm;
}

void Exp3Policy::ScoreArms(const ArmStats& stats,
                           std::vector<double>* out) const {
  out->assign(stats.num_arms(), 0.0);
  if (weights_.size() != stats.num_arms()) return;  // before Reset()
  double total = 0.0;
  size_t active = 0;
  for (size_t a = 0; a < weights_.size(); ++a) {
    if (stats.active(a)) {
      total += weights_[a];
      ++active;
    }
  }
  if (active == 0 || total <= 0.0) return;
  double k = static_cast<double>(active);
  for (size_t a = 0; a < weights_.size(); ++a) {
    if (!stats.active(a)) continue;
    (*out)[a] = (1.0 - kGamma) * weights_[a] / total +
                kGamma / k;
  }
}

void Exp3Policy::Observe(size_t arm, double reward) {
  ZCHECK_LT(arm, weights_.size());
  // Importance-weighted reward estimate for the played arm only.
  double r = std::clamp(reward, 0.0, 1.0);
  double estimate = r / last_probability_;
  double k = static_cast<double>(std::max<size_t>(num_active_last_, 1));
  weights_[arm] *= std::exp(kGamma * estimate / k);
}

void Exp3Policy::OnArmAdded(size_t arm) {
  ZCHECK_EQ(arm, weights_.size()) << "arms must be appended in order";
  double max_w = 0.0;
  for (double w : weights_) max_w = std::max(max_w, w);
  weights_.push_back(max_w > 0.0 ? max_w : 1.0);
}

std::unique_ptr<BanditPolicy> Exp3Policy::Clone() const {
  return std::make_unique<Exp3Policy>();
}

}  // namespace zombie
