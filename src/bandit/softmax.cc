#include "bandit/softmax.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "util/logging.h"
#include "util/string_util.h"

namespace zombie {

size_t SoftmaxPolicy::SelectArm(const ArmStats& stats, Rng* rng) {
  ZCHECK_GT(stats.num_active(), 0u);
  // Stabilize exp() by subtracting the max mean.
  double max_mean = -1e300;
  for (size_t a = 0; a < stats.num_arms(); ++a) {
    if (stats.active(a)) max_mean = std::max(max_mean, stats.mean(a));
  }
  std::vector<double> probs(stats.num_arms(), 0.0);
  for (size_t a = 0; a < stats.num_arms(); ++a) {
    if (!stats.active(a)) continue;
    probs[a] = std::exp((stats.mean(a) - max_mean) / kTemperature);
  }
  size_t arm = rng->NextDiscrete(probs);
  if (arm >= probs.size()) arm = bandit_internal::PickUniformActive(stats, rng);
  return arm;
}

void SoftmaxPolicy::ScoreArms(const ArmStats& stats,
                              std::vector<double>* out) const {
  out->assign(stats.num_arms(), 0.0);
  double max_mean = -1e300;
  for (size_t a = 0; a < stats.num_arms(); ++a) {
    if (stats.active(a)) max_mean = std::max(max_mean, stats.mean(a));
  }
  double total = 0.0;
  for (size_t a = 0; a < stats.num_arms(); ++a) {
    if (!stats.active(a)) continue;
    (*out)[a] = std::exp((stats.mean(a) - max_mean) / kTemperature);
    total += (*out)[a];
  }
  if (total <= 0.0) return;
  for (size_t a = 0; a < stats.num_arms(); ++a) (*out)[a] /= total;
}

std::string SoftmaxPolicy::name() const {
  return StrFormat("softmax(%.2f)", kTemperature);
}

std::unique_ptr<BanditPolicy> SoftmaxPolicy::Clone() const {
  return std::make_unique<SoftmaxPolicy>();
}

}  // namespace zombie
