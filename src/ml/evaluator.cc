#include "ml/evaluator.h"

#include <cmath>

#include "util/logging.h"
#include "util/stats.h"

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

double HoldoutEvaluator::Quality(const Learner& learner,
                                 QualityMetric metric) const {
  return QualityOf(Evaluate(learner), metric);
}

CrossValidationResult CrossValidate(const Learner& prototype,
                                    const Dataset& data, size_t folds,
                                    size_t epochs, QualityMetric metric,
                                    Rng* rng) {
  ZCHECK_GE(folds, 2u);
  std::vector<Dataset> fold_sets = data.SplitFolds(folds, rng);
  CrossValidationResult result;
  for (size_t held = 0; held < folds; ++held) {
    std::unique_ptr<Learner> learner = prototype.Clone();
    Dataset train;
    for (size_t f = 0; f < folds; ++f) {
      if (f == held) continue;
      for (ExampleView e : fold_sets[f].examples()) train.Add(e);
    }
    TrainEpochs(learner.get(), train, epochs, rng);
    BinaryMetrics m = EvaluateLearner(*learner, fold_sets[held]);
    result.fold_qualities.push_back(QualityOf(m, metric));
  }
  result.mean_quality = Mean(result.fold_qualities);
  result.stddev_quality = StdDev(result.fold_qualities);
  return result;
}

}  // namespace zombie
