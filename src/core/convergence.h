#ifndef ZOMBIE_CORE_CONVERGENCE_H_
#define ZOMBIE_CORE_CONVERGENCE_H_

#include <cstddef>
#include <deque>

namespace zombie {

/// Plateau detection over the quality-evaluation stream: the run stops
/// when the last kWindow evaluations vary by at most kEpsilon — the
/// engineer's quality estimate has converged, so processing more inputs is
/// wasted time (the paper's early-stopping rule).
class ConvergenceDetector {
 public:
  /// Number of consecutive evaluations the plateau must span.
  static constexpr size_t kWindow = 10;
  /// Max-minus-min quality spread tolerated inside the window: the
  /// granularity of F1 measured on a few-hundred-item holdout.
  static constexpr double kEpsilon = 0.01;

  /// Feeds the next quality evaluation.
  void Add(double quality);

  /// True once a full window of near-constant quality has been seen.
  /// Never true before kWindow observations.
  bool converged() const;

 private:
  std::deque<double> recent_;
};

}  // namespace zombie

#endif  // ZOMBIE_CORE_CONVERGENCE_H_
