#include "ml/learning_curve.h"

#include <algorithm>

#include "util/logging.h"
#include "util/string_util.h"

namespace zombie {

void LearningCurve::Add(CurvePoint point) {
  if (!points_.empty()) {
    ZCHECK_GE(point.items_processed, points_.back().items_processed);
    ZCHECK_GE(point.virtual_micros, points_.back().virtual_micros);
  }
  points_.push_back(std::move(point));
}

double LearningCurve::FinalQuality() const {
  return points_.empty() ? 0.0 : points_.back().quality;
}

double LearningCurve::PeakQuality() const {
  double peak = 0.0;
  for (const auto& p : points_) peak = std::max(peak, p.quality);
  return peak;
}

std::string LearningCurve::ToCsv() const {
  std::string out = "items,virtual_seconds,quality,f1,accuracy,auc\n";
  for (const auto& p : points_) {
    out += StrFormat("%zu,%.6f,%.6f,%.6f,%.6f,%.6f\n", p.items_processed,
                     static_cast<double>(p.virtual_micros) / 1e6, p.quality,
                     p.metrics.f1, p.metrics.accuracy, p.metrics.auc);
  }
  return out;
}

}  // namespace zombie
