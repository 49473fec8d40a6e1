#include "bandit/sliding_ucb.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "util/logging.h"
#include "util/string_util.h"

namespace zombie {

void SlidingUcbPolicy::Reset(size_t num_arms) {
  history_.clear();
  window_pulls_.assign(num_arms, 0);
  window_reward_.assign(num_arms, 0.0);
}

size_t SlidingUcbPolicy::SelectArm(const ArmStats& stats, Rng* /*rng*/) {
  ZCHECK_GT(stats.num_active(), 0u);
  ZCHECK_EQ(window_pulls_.size(), stats.num_arms()) << "Reset() not called";

  // Any active arm absent from the window has an infinite index: try it.
  // (This also covers never-pulled arms.)
  for (size_t a = 0; a < stats.num_arms(); ++a) {
    if (stats.active(a) && window_pulls_[a] == 0) return a;
  }

  double horizon = static_cast<double>(
      std::min<size_t>(history_.size() + 1, kWindow));
  double log_h = std::log(std::max(horizon, 2.0));
  double best = -1.0;
  size_t best_arm = stats.num_arms();
  for (size_t a = 0; a < stats.num_arms(); ++a) {
    if (!stats.active(a)) continue;
    double n = static_cast<double>(window_pulls_[a]);
    double mean = window_reward_[a] / n;
    double index = mean + kExploration * std::sqrt(log_h / n);
    if (index > best) {
      best = index;
      best_arm = a;
    }
  }
  ZCHECK_LT(best_arm, stats.num_arms());
  return best_arm;
}

void SlidingUcbPolicy::ScoreArms(const ArmStats& stats,
                                 std::vector<double>* out) const {
  out->assign(stats.num_arms(), 0.0);
  if (window_pulls_.size() != stats.num_arms()) return;  // before Reset()
  double horizon = static_cast<double>(
      std::min<size_t>(history_.size() + 1, kWindow));
  double log_h = std::log(std::max(horizon, 2.0));
  for (size_t a = 0; a < stats.num_arms(); ++a) {
    if (!stats.active(a)) continue;
    if (window_pulls_[a] == 0) {
      (*out)[a] = 1e9;  // finite stand-in for the infinite index
      continue;
    }
    double n = static_cast<double>(window_pulls_[a]);
    (*out)[a] = window_reward_[a] / n +
                kExploration * std::sqrt(log_h / n);
  }
}

void SlidingUcbPolicy::Observe(size_t arm, double reward) {
  ZCHECK_LT(arm, window_pulls_.size());
  history_.emplace_back(arm, reward);
  ++window_pulls_[arm];
  window_reward_[arm] += reward;
  if (history_.size() > kWindow) {
    auto [old_arm, old_reward] = history_.front();
    history_.pop_front();
    --window_pulls_[old_arm];
    window_reward_[old_arm] -= old_reward;
  }
}

void SlidingUcbPolicy::OnArmAdded(size_t arm) {
  ZCHECK_EQ(arm, window_pulls_.size()) << "arms must be appended in order";
  window_pulls_.push_back(0);
  window_reward_.push_back(0.0);
}

std::string SlidingUcbPolicy::name() const {
  return StrFormat("swucb(%zu)", kWindow);
}

std::unique_ptr<BanditPolicy> SlidingUcbPolicy::Clone() const {
  return std::make_unique<SlidingUcbPolicy>();
}

size_t SlidingUcbPolicy::WindowPulls(size_t arm) const {
  ZCHECK_LT(arm, window_pulls_.size());
  return window_pulls_[arm];
}

}  // namespace zombie
