#ifndef ZOMBIE_ML_PEGASOS_SVM_H_
#define ZOMBIE_ML_PEGASOS_SVM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ml/learner.h"

namespace zombie {

/// Linear SVM trained with the Pegasos stochastic subgradient method
/// (Shalev-Shwartz et al.). Uses the weight-scaling trick so each Update()
/// is O(nnz). Scores are unnormalized margins.
class PegasosSvmLearner : public Learner {
 public:
  /// Regularization strength; the Pegasos step size is 1 / (lambda * t).
  static constexpr double kLambda = 1e-4;

  void Update(SparseVectorView x, int32_t y) override;
  double Score(SparseVectorView x) const override;
  void Reset() override;
  std::unique_ptr<Learner> Clone() const override;
  std::string name() const override { return "svm"; }
  size_t num_updates() const override { return num_updates_; }
  bool ExportWeightMagnitudes(std::vector<double>* out) const override;
  bool CompactFeatures(const std::vector<uint32_t>& old_to_new,
                       uint32_t new_dimension) override;

 private:
  void Rescale();

  std::vector<double> weights_;
  double scale_ = 1.0;
  double bias_ = 0.0;
  size_t num_updates_ = 0;
};

}  // namespace zombie

#endif  // ZOMBIE_ML_PEGASOS_SVM_H_
