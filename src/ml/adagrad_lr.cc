#include "ml/adagrad_lr.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace zombie {

double AdaGradLogisticLearner::RawScore(SparseVectorView x) const {
  double s = x.Dot(weights_) + bias_;
  return std::clamp(s, -kScoreClip, kScoreClip);
}

double AdaGradLogisticLearner::Score(SparseVectorView x) const {
  return RawScore(x);
}

void AdaGradLogisticLearner::Update(SparseVectorView x, int32_t y) {
  ZCHECK(y == 0 || y == 1) << "binary labels required, got " << y;
  ++num_updates_;
  double p = 1.0 / (1.0 + std::exp(-RawScore(x)));
  double residual = static_cast<double>(y) - p;

  if (weights_.size() < x.dimension()) {
    weights_.resize(x.dimension(), 0.0);
    grad_sq_.resize(x.dimension(), 0.0);
  }
  for (size_t i = 0; i < x.num_nonzero(); ++i) {
    uint32_t idx = x.index_at(i);
    // Gradient of the regularized negative log-likelihood at idx.
    double g = -residual * x.value_at(i) + kLambda * weights_[idx];
    grad_sq_[idx] += g * g;
    weights_[idx] -=
        kEta * g / (kEpsilon + std::sqrt(grad_sq_[idx]));
  }
  double gb = -residual;
  bias_grad_sq_ += gb * gb;
  bias_ -= kEta * gb / (kEpsilon + std::sqrt(bias_grad_sq_));
}

double AdaGradLogisticLearner::WeightAt(uint32_t index) const {
  if (index >= weights_.size()) return 0.0;
  return weights_[index];
}

void AdaGradLogisticLearner::Reset() {
  weights_.clear();
  grad_sq_.clear();
  bias_ = 0.0;
  bias_grad_sq_ = 0.0;
  num_updates_ = 0;
}

std::unique_ptr<Learner> AdaGradLogisticLearner::Clone() const {
  return std::make_unique<AdaGradLogisticLearner>();
}

bool AdaGradLogisticLearner::ExportWeightMagnitudes(
    std::vector<double>* out) const {
  out->resize(weights_.size());
  for (size_t f = 0; f < weights_.size(); ++f) {
    (*out)[f] = std::abs(weights_[f]);
  }
  return true;
}

bool AdaGradLogisticLearner::CompactFeatures(
    const std::vector<uint32_t>& old_to_new, uint32_t new_dimension) {
  // grad_sq_ rides along so kept features keep their annealed step sizes.
  CompactDenseState(old_to_new, new_dimension, &weights_);
  CompactDenseState(old_to_new, new_dimension, &grad_sq_);
  return true;
}

}  // namespace zombie
