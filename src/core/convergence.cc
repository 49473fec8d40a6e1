#include "core/convergence.h"

#include <algorithm>

namespace zombie {

void ConvergenceDetector::Add(double quality) {
  recent_.push_back(quality);
  if (recent_.size() > kWindow) recent_.pop_front();
}

bool ConvergenceDetector::converged() const {
  if (recent_.size() < kWindow) return false;
  double lo = *std::min_element(recent_.begin(), recent_.end());
  double hi = *std::max_element(recent_.begin(), recent_.end());
  return hi - lo <= kEpsilon;
}

}  // namespace zombie
