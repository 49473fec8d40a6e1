#include "bandit/ucb1.h"

#include <cmath>
#include <memory>

#include "util/logging.h"
#include "util/string_util.h"

namespace zombie {

size_t Ucb1Policy::SelectArm(const ArmStats& stats, Rng* /*rng*/) {
  ZCHECK_GT(stats.num_active(), 0u);
  size_t unpulled = bandit_internal::FirstUnpulledActive(stats);
  if (unpulled < stats.num_arms()) return unpulled;

  double log_n = std::log(static_cast<double>(stats.total_pulls()) + 1.0);
  double best = -1.0;
  size_t best_arm = stats.num_arms();
  for (size_t a = 0; a < stats.num_arms(); ++a) {
    if (!stats.active(a)) continue;
    double bonus = kExploration *
                   std::sqrt(2.0 * log_n /
                             static_cast<double>(stats.pulls(a)));
    double index = stats.mean(a) + bonus;
    if (index > best) {
      best = index;
      best_arm = a;
    }
  }
  ZCHECK_LT(best_arm, stats.num_arms());
  return best_arm;
}

void Ucb1Policy::ScoreArms(const ArmStats& stats,
                           std::vector<double>* out) const {
  out->assign(stats.num_arms(), 0.0);
  double log_n = std::log(static_cast<double>(stats.total_pulls()) + 1.0);
  for (size_t a = 0; a < stats.num_arms(); ++a) {
    if (!stats.active(a)) continue;
    if (stats.pulls(a) == 0) {
      (*out)[a] = 1e9;  // finite stand-in for the infinite index
      continue;
    }
    (*out)[a] = stats.mean(a) +
                kExploration *
                    std::sqrt(2.0 * log_n /
                              static_cast<double>(stats.pulls(a)));
  }
}

std::string Ucb1Policy::name() const {
  return StrFormat("ucb1(%.2f)", kExploration);
}

std::unique_ptr<BanditPolicy> Ucb1Policy::Clone() const {
  return std::make_unique<Ucb1Policy>();
}

}  // namespace zombie
