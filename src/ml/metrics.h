#ifndef ZOMBIE_ML_METRICS_H_
#define ZOMBIE_ML_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ml/dataset.h"
#include "ml/learner.h"

namespace zombie {

class ThreadPool;

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

/// Which scalar a run optimizes/reports as "quality". The paper's tasks are
/// rare-class, so F1 of the positive class is the default.
enum class QualityMetric { kF1, kAccuracy, kAuc };

const char* QualityMetricName(QualityMetric metric);

/// Extracts the selected scalar from a metrics bundle.
double QualityOf(const BinaryMetrics& m, QualityMetric metric);

/// Scores every example with `learner` and computes the full bundle.
/// AUC is the rank-based (Mann–Whitney) estimate over Score() values; it is
/// 0 when either class is absent from `data`.
///
/// Determinism contract for `pool`: when non-null, scoring is sharded over
/// fixed index ranges and each shard writes its own disjoint slots of a
/// pre-sized score vector; every reduction (confusion, threshold sweep,
/// AUC) then runs serially over that vector. The scores — and therefore the
/// returned metrics — are byte-identical to the serial path at any thread
/// count, by construction rather than by tolerance. Scores come from one
/// Learner::ScoreBatch call per shard, which must be const and thread-safe
/// (all learners here are: scoring never mutates).
BinaryMetrics EvaluateLearner(const Learner& learner, const Dataset& data,
                              ThreadPool* pool = nullptr);

/// Fills `scores`/`labels` (resized to data.size()) with Score()/label for
/// every example, through one Learner::ScoreBatch call per shard. Serial
/// (one shard) when pool is null or the dataset is small; otherwise sharded
/// over fixed 128-row ranges with each shard writing only its own slots, so
/// the filled vectors are identical to the serial fill regardless of thread
/// count or completion order.
void ScoreAll(const Learner& learner, const Dataset& data, ThreadPool* pool,
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
                                   double* best_threshold = nullptr,
                                   ThreadPool* pool = nullptr);

}  // namespace zombie

#endif  // ZOMBIE_ML_METRICS_H_
