#ifndef ZOMBIE_ML_METRICS_H_
#define ZOMBIE_ML_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ml/dataset.h"
#include "ml/learner.h"

namespace zombie {

/// Binary confusion counts, positive class == 1.
struct Confusion {
  int64_t tp = 0;
  int64_t fp = 0;
  int64_t tn = 0;
  int64_t fn = 0;

  int64_t total() const { return tp + fp + tn + fn; }
  void Add(int32_t truth, int32_t predicted);
};

/// Derived metrics; degenerate denominators yield 0 (not NaN) so learning
/// curves start at a defined value.
double Accuracy(const Confusion& c);
double Precision(const Confusion& c);
double Recall(const Confusion& c);
double F1(const Confusion& c);

/// Quality score bundle reported by evaluators.
struct BinaryMetrics {
  Confusion confusion;
  double accuracy = 0.0;
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
  double auc = 0.0;

  std::string ToString() const;
};

/// Scores every example with `learner` and computes the full bundle.
/// AUC is the rank-based (Mann–Whitney) estimate over Score() values; it is
/// 0 when either class is absent from `data`.
BinaryMetrics EvaluateLearner(const Learner& learner, const Dataset& data);

/// Fills `scores`/`labels` (resized to data.size()) with Score()/label for
/// every example, through one Learner::ScoreBatch call.
void ScoreAll(const Learner& learner, const Dataset& data,
              std::vector<double>* scores, std::vector<int32_t>* labels);

/// AUC from raw (score, label) pairs; ties get midrank credit.
double AucFromScores(const std::vector<double>& scores,
                     const std::vector<int32_t>& labels);

/// Like EvaluateLearner, but instead of thresholding scores at 0, sweeps
/// every distinct score as the decision threshold and reports the metrics
/// at the F1-maximizing one (`best_threshold` receives it when non-null).
/// This removes class-prior miscalibration from the quality signal —
/// selection skews the training class balance, which shifts a generative
/// learner's operating point without changing its ranking quality.
BinaryMetrics EvaluateLearnerTuned(const Learner& learner,
                                   const Dataset& data,
                                   double* best_threshold = nullptr);

}  // namespace zombie

#endif  // ZOMBIE_ML_METRICS_H_
