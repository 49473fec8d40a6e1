#ifndef ZOMBIE_ML_ADAGRAD_LR_H_
#define ZOMBIE_ML_ADAGRAD_LR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ml/learner.h"

namespace zombie {

/// Hyperparameters for AdaGrad logistic regression.
struct AdaGradOptions {
  /// Base step size (per-coordinate rates adapt from here).
  double eta = 0.5;
  /// L2 regularization applied to touched coordinates.
  double lambda = 1e-5;
  /// Stability constant in the adaptive denominator.
  double epsilon = 1e-6;
  /// Clamp on the raw score before the sigmoid.
  double score_clip = 30.0;
};

/// Logistic regression with AdaGrad per-coordinate step sizes (Duchi et
/// al.): rare features keep large steps while frequent ones anneal. On
/// hashed sparse text this converges far more evenly than a single global
/// rate and is much less sensitive to eta — the better SGD choice for the
/// one-pass inner loop.
class AdaGradLogisticLearner : public Learner {
 public:
  explicit AdaGradLogisticLearner(AdaGradOptions options = {});

  void Update(SparseVectorView x, int32_t y) override;
  double Score(SparseVectorView x) const override;
  void Reset() override;
  std::unique_ptr<Learner> Clone() const override;
  std::string name() const override { return "adagrad"; }
  size_t num_updates() const override { return num_updates_; }
  bool ExportWeightMagnitudes(std::vector<double>* out) const override;
  bool CompactFeatures(const std::vector<uint32_t>& old_to_new,
                       uint32_t new_dimension) override;

  double WeightAt(uint32_t index) const;

 private:
  double RawScore(SparseVectorView x) const;

  AdaGradOptions options_;
  std::vector<double> weights_;
  std::vector<double> grad_sq_;  // accumulated squared gradients
  double bias_ = 0.0;
  double bias_grad_sq_ = 0.0;
  size_t num_updates_ = 0;
};

}  // namespace zombie

#endif  // ZOMBIE_ML_ADAGRAD_LR_H_
