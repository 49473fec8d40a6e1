#include "ml/logistic_regression.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace zombie {

LogisticRegressionLearner::LogisticRegressionLearner(
    LogisticRegressionOptions options)
    : options_(options) {
  ZCHECK_GT(options.eta0, 0.0);
  ZCHECK_GE(options.lambda, 0.0);
}

double LogisticRegressionLearner::RawScore(SparseVectorView x) const {
  double s = scale_ * x.Dot(weights_) + bias_;
  return std::clamp(s, -options_.score_clip, options_.score_clip);
}

double LogisticRegressionLearner::Score(SparseVectorView x) const {
  return RawScore(x);
}

void LogisticRegressionLearner::Rescale() {
  if (scale_ > 1e-9) return;
  for (double& w : weights_) w *= scale_;
  scale_ = 1.0;
}

void LogisticRegressionLearner::Update(SparseVectorView x, int32_t y) {
  ZCHECK(y == 0 || y == 1) << "binary labels required, got " << y;
  ++num_updates_;
  double t = static_cast<double>(num_updates_);
  double eta =
      options_.eta0 / (1.0 + options_.lambda * options_.eta0 * t);

  double p = 1.0 / (1.0 + std::exp(-RawScore(x)));
  double g = static_cast<double>(y) - p;  // gradient of log-likelihood

  // L2 shrink via the scale factor: w <- (1 - eta*lambda) * w.
  if (options_.lambda > 0.0) {
    scale_ *= (1.0 - eta * options_.lambda);
    if (scale_ <= 0.0) scale_ = 1e-12;
    Rescale();
  }

  // Gradient step touches only the example's nonzeros. Because the live
  // weights are scale_*weights_, the raw update is eta*g/scale_.
  if (weights_.size() < x.dimension()) weights_.resize(x.dimension(), 0.0);
  double step = eta * g / scale_;
  for (size_t i = 0; i < x.num_nonzero(); ++i) {
    weights_[x.index_at(i)] += step * x.value_at(i);
  }
  bias_ += eta * g;
}

double LogisticRegressionLearner::WeightAt(uint32_t index) const {
  if (index >= weights_.size()) return 0.0;
  return scale_ * weights_[index];
}

void LogisticRegressionLearner::Reset() {
  weights_.clear();
  scale_ = 1.0;
  bias_ = 0.0;
  num_updates_ = 0;
}

std::unique_ptr<Learner> LogisticRegressionLearner::Clone() const {
  return std::make_unique<LogisticRegressionLearner>(options_);
}

bool LogisticRegressionLearner::ExportWeightMagnitudes(
    std::vector<double>* out) const {
  out->resize(weights_.size());
  for (size_t f = 0; f < weights_.size(); ++f) {
    (*out)[f] = std::abs(scale_ * weights_[f]);
  }
  return true;
}

bool LogisticRegressionLearner::CompactFeatures(
    const std::vector<uint32_t>& old_to_new, uint32_t new_dimension) {
  // scale_ and bias_ are untouched: the live weight of a kept feature is
  // still scale_ * weights_[dense id], so compacted scores match scoring
  // the original vector with pruned features zeroed.
  CompactDenseState(old_to_new, new_dimension, &weights_);
  return true;
}

}  // namespace zombie
