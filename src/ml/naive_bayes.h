#ifndef ZOMBIE_ML_NAIVE_BAYES_H_
#define ZOMBIE_ML_NAIVE_BAYES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ml/learner.h"

namespace zombie {

/// Multinomial naive Bayes with Laplace smoothing, trained incrementally.
///
/// This is the default Zombie inner-loop learner: a single Update() costs
/// O(nnz) and the model is exact for the data seen so far (no epochs),
/// which is exactly what a one-item-at-a-time input selection loop wants.
/// Real-valued features are treated as fractional counts; negative feature
/// values are clamped to zero (multinomial NB is count-based).
class NaiveBayesLearner : public Learner {
 public:
  /// `alpha` is the Laplace smoothing pseudo-count (> 0). The default is
  /// small because the feature pipeline L2-normalizes: per-feature masses
  /// are fractions, and a large alpha would drown them for thousands of
  /// updates.
  explicit NaiveBayesLearner(double alpha = 0.1);

  void Update(SparseVectorView x, int32_t y) override;
  double Score(SparseVectorView x) const override;
  void ScoreBatch(const Dataset& data, size_t begin, size_t end,
                  double* out) const override;
  void Reset() override;
  std::unique_ptr<Learner> Clone() const override;
  std::string name() const override { return "nb"; }
  size_t num_updates() const override { return num_updates_; }
  bool ExportWeightMagnitudes(std::vector<double>* out) const override;
  bool CompactFeatures(const std::vector<uint32_t>& old_to_new,
                       uint32_t new_dimension) override;

  double alpha() const { return alpha_; }

 private:
  // The model-state constants of LogOdds: the smoothed class-prior
  // log-ratio and the per-class smoothing denominators (over the currently
  // observed feature dimensionality).
  struct Smoothing {
    double log_prior = 0.0;
    double denom0 = 0.0;
    double denom1 = 0.0;
  };
  Smoothing CurrentSmoothing() const;

  // log P(f|y=1) - log P(f|y=0): per unit of feature value, how far feature
  // f moves LogOdds. Ids past the count vectors have zero counts.
  double FeatureWeight(size_t f, const Smoothing& s) const;

  // Log P(y=1|x) - log P(y=0|x).
  double LogOdds(SparseVectorView x) const;

  double alpha_;
  size_t num_updates_ = 0;
  // Per-class document counts and per-class total token mass.
  double class_count_[2] = {0.0, 0.0};
  double token_total_[2] = {0.0, 0.0};
  // Per-class per-feature token mass; grown on demand.
  std::vector<double> token_count_[2];
  size_t dimension_ = 0;
};

}  // namespace zombie

#endif  // ZOMBIE_ML_NAIVE_BAYES_H_
