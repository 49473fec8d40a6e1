#ifndef ZOMBIE_ML_EVALUATOR_H_
#define ZOMBIE_ML_EVALUATOR_H_

#include <cstddef>

#include "ml/dataset.h"
#include "ml/learner.h"
#include "ml/metrics.h"
#include "util/random.h"

namespace zombie {

/// Streams a dataset through a learner for `epochs` passes, shuffling each
/// pass. This is "batch training" for our online learners.
void TrainEpochs(Learner* learner, const Dataset& train, size_t epochs,
                 Rng* rng);

/// Quality estimation against a fixed labeled holdout set — the paper's
/// inner-loop quality signal. The holdout is featurized once up front (the
/// engine accounts for that one-time cost) and reused for every evaluation.
class HoldoutEvaluator {
 public:
  explicit HoldoutEvaluator(Dataset holdout);

  /// Full metrics of the learner on the holdout.
  BinaryMetrics Evaluate(const Learner& learner) const;

  const Dataset& holdout() const { return holdout_; }
  size_t size() const { return holdout_.size(); }

 private:
  Dataset holdout_;
};

}  // namespace zombie

#endif  // ZOMBIE_ML_EVALUATOR_H_
