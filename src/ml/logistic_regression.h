#ifndef ZOMBIE_ML_LOGISTIC_REGRESSION_H_
#define ZOMBIE_ML_LOGISTIC_REGRESSION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ml/learner.h"

namespace zombie {

/// L2-regularized logistic regression trained by plain SGD with an inverse
/// scaling learning-rate schedule. Regularization uses the classic weight-
/// scaling trick so each Update() touches only the example's nonzeros.
class LogisticRegressionLearner : public Learner {
 public:
  /// Base learning rate; per-step rate is eta0 / (1 + lambda * eta0 * t).
  static constexpr double kEta0 = 0.5;
  /// L2 regularization strength.
  static constexpr double kLambda = 1e-4;
  /// Clamp on |weights·x| before the sigmoid, for numeric safety.
  static constexpr double kScoreClip = 30.0;

  void Update(SparseVectorView x, int32_t y) override;
  double Score(SparseVectorView x) const override;
  void Reset() override;
  std::unique_ptr<Learner> Clone() const override;
  std::string name() const override { return "logreg"; }
  size_t num_updates() const override { return num_updates_; }
  bool ExportWeightMagnitudes(std::vector<double>* out) const override;
  bool CompactFeatures(const std::vector<uint32_t>& old_to_new,
                       uint32_t new_dimension) override;


  /// Materialized weight for one feature (scale applied).
  double WeightAt(uint32_t index) const;
  double bias() const { return bias_; }

 private:
  double RawScore(SparseVectorView x) const;
  // Folds scale_ into weights_ when it underflows toward zero.
  void Rescale();

  std::vector<double> weights_;
  double scale_ = 1.0;
  double bias_ = 0.0;
  size_t num_updates_ = 0;
};

}  // namespace zombie

#endif  // ZOMBIE_ML_LOGISTIC_REGRESSION_H_
