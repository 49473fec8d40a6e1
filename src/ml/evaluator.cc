#include "ml/evaluator.h"

#include "util/logging.h"

namespace zombie {

void TrainEpochs(Learner* learner, const Dataset& train, size_t epochs,
                 Rng* rng) {
  std::vector<size_t> order(train.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (size_t e = 0; e < epochs; ++e) {
    rng->Shuffle(&order);
    for (size_t idx : order) {
      ExampleView ex = train.example(idx);
      learner->Update(ex.x, ex.y);
    }
  }
}

HoldoutEvaluator::HoldoutEvaluator(Dataset holdout)
    : holdout_(std::move(holdout)) {
  ZCHECK(!holdout_.empty()) << "holdout must be non-empty";
}

BinaryMetrics HoldoutEvaluator::Evaluate(const Learner& learner) const {
  return EvaluateLearner(learner, holdout_);
}

}  // namespace zombie
