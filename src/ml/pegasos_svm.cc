#include "ml/pegasos_svm.h"

#include "util/logging.h"

namespace zombie {

double PegasosSvmLearner::Score(SparseVectorView x) const {
  return scale_ * x.Dot(weights_) + bias_;
}

void PegasosSvmLearner::Rescale() {
  if (scale_ > 1e-9) return;
  for (double& w : weights_) w *= scale_;
  scale_ = 1.0;
}

void PegasosSvmLearner::Update(SparseVectorView x, int32_t y) {
  ZCHECK(y == 0 || y == 1) << "binary labels required, got " << y;
  ++num_updates_;
  // t+1 avoids the degenerate first step where (1 - eta*lambda) would be 0.
  double t = static_cast<double>(num_updates_) + 1.0;
  double eta = 1.0 / (kLambda * t);
  double yy = y == 1 ? 1.0 : -1.0;

  double margin = yy * Score(x);

  // w <- (1 - eta*lambda) w  [+ eta*y*x when the margin is violated].
  scale_ *= (1.0 - eta * kLambda);
  if (scale_ <= 0.0) scale_ = 1e-12;
  Rescale();

  if (margin < 1.0) {
    if (weights_.size() < x.dimension()) weights_.resize(x.dimension(), 0.0);
    double step = eta * yy / scale_;
    for (size_t i = 0; i < x.num_nonzero(); ++i) {
      weights_[x.index_at(i)] += step * x.value_at(i);
    }
    bias_ += eta * yy;
  }
}

void PegasosSvmLearner::Reset() {
  weights_.clear();
  scale_ = 1.0;
  bias_ = 0.0;
  num_updates_ = 0;
}

std::unique_ptr<Learner> PegasosSvmLearner::Clone() const {
  return std::make_unique<PegasosSvmLearner>();
}

bool PegasosSvmLearner::ExportWeightMagnitudes(
    std::vector<double>* out) const {
  out->resize(weights_.size());
  for (size_t f = 0; f < weights_.size(); ++f) {
    (*out)[f] = std::abs(scale_ * weights_[f]);
  }
  return true;
}

bool PegasosSvmLearner::CompactFeatures(
    const std::vector<uint32_t>& old_to_new, uint32_t new_dimension) {
  // scale_ and bias_ are untouched (see the logreg note).
  CompactDenseState(old_to_new, new_dimension, &weights_);
  return true;
}

}  // namespace zombie
