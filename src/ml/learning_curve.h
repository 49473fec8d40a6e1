#ifndef ZOMBIE_ML_LEARNING_CURVE_H_
#define ZOMBIE_ML_LEARNING_CURVE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ml/metrics.h"

namespace zombie {

/// One quality evaluation during a run.
struct CurvePoint {
  /// Raw items processed (featurized) so far.
  size_t items_processed = 0;
  /// Virtual time spent so far, microseconds.
  int64_t virtual_micros = 0;
  /// The tracked quality scalar at this point.
  double quality = 0.0;
  /// Full metrics bundle at this point.
  BinaryMetrics metrics;
};

/// The quality-versus-effort trajectory of one inner-loop run — the unit of
/// comparison for every figure analogue ("quality vs. items processed").
class LearningCurve {
 public:
  LearningCurve() = default;

  void Add(CurvePoint point);

  size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }
  const CurvePoint& point(size_t i) const { return points_[i]; }
  const std::vector<CurvePoint>& points() const { return points_; }

  /// Quality at the last evaluation (0 if no evaluations happened).
  double FinalQuality() const;

  /// Highest quality reached anywhere on the curve.
  double PeakQuality() const;

  /// CSV rendering: items,virtual_seconds,quality,f1,accuracy,auc.
  std::string ToCsv() const;

 private:
  std::vector<CurvePoint> points_;
};

}  // namespace zombie

#endif  // ZOMBIE_ML_LEARNING_CURVE_H_
