#include "ml/metrics.h"

#include <algorithm>

#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace zombie {

namespace {

/// Minimum examples per shard when scoring on a pool; below
/// kShardSize * 2 the fork/join overhead outweighs the scan.
constexpr size_t kShardSize = 128;

}  // namespace

void ScoreAll(const Learner& learner, const Dataset& data, ThreadPool* pool,
              std::vector<double>* scores, std::vector<int32_t>* labels) {
  const size_t n = data.size();
  scores->resize(n);
  labels->resize(n);
  for (size_t i = 0; i < n; ++i) (*labels)[i] = data.label(i);
  double* score_out = scores->data();
  if (pool == nullptr || n < 2 * kShardSize) {
    learner.ScoreBatch(data, 0, n, score_out);
    return;
  }
  const size_t num_shards = (n + kShardSize - 1) / kShardSize;
  ParallelFor(pool, num_shards, [&](size_t shard) {
    const size_t begin = shard * kShardSize;
    const size_t end = std::min(begin + kShardSize, n);
    learner.ScoreBatch(data, begin, end, score_out + begin);
  });
}

void Confusion::Add(int32_t truth, int32_t predicted) {
  if (truth == 1) {
    if (predicted == 1) {
      ++tp;
    } else {
      ++fn;
    }
  } else {
    if (predicted == 1) {
      ++fp;
    } else {
      ++tn;
    }
  }
}

double Accuracy(const Confusion& c) {
  int64_t total = c.total();
  if (total == 0) return 0.0;
  return static_cast<double>(c.tp + c.tn) / static_cast<double>(total);
}

double Precision(const Confusion& c) {
  int64_t denom = c.tp + c.fp;
  if (denom == 0) return 0.0;
  return static_cast<double>(c.tp) / static_cast<double>(denom);
}

double Recall(const Confusion& c) {
  int64_t denom = c.tp + c.fn;
  if (denom == 0) return 0.0;
  return static_cast<double>(c.tp) / static_cast<double>(denom);
}

double F1(const Confusion& c) {
  double p = Precision(c);
  double r = Recall(c);
  if (p + r == 0.0) return 0.0;
  return 2.0 * p * r / (p + r);
}

std::string BinaryMetrics::ToString() const {
  return StrFormat("acc=%.3f p=%.3f r=%.3f f1=%.3f auc=%.3f", accuracy,
                   precision, recall, f1, auc);
}

const char* QualityMetricName(QualityMetric metric) {
  switch (metric) {
    case QualityMetric::kF1:
      return "f1";
    case QualityMetric::kAccuracy:
      return "accuracy";
    case QualityMetric::kAuc:
      return "auc";
  }
  return "?";
}

double QualityOf(const BinaryMetrics& m, QualityMetric metric) {
  switch (metric) {
    case QualityMetric::kF1:
      return m.f1;
    case QualityMetric::kAccuracy:
      return m.accuracy;
    case QualityMetric::kAuc:
      return m.auc;
  }
  return 0.0;
}

double AucFromScores(const std::vector<double>& scores,
                     const std::vector<int32_t>& labels) {
  ZCHECK_EQ(scores.size(), labels.size());
  size_t n = scores.size();
  int64_t num_pos = 0;
  for (int32_t y : labels) {
    if (y == 1) ++num_pos;
  }
  int64_t num_neg = static_cast<int64_t>(n) - num_pos;
  if (num_pos == 0 || num_neg == 0) return 0.0;

  // Midrank AUC: sort by score, assign average ranks within ties, sum
  // positive ranks (Mann–Whitney U).
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&scores](size_t a, size_t b) {
    return scores[a] < scores[b];
  });
  double pos_rank_sum = 0.0;
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j + 1 < n && scores[order[j + 1]] == scores[order[i]]) ++j;
    // Ranks are 1-based; ties share the average rank of their block.
    double avg_rank = (static_cast<double>(i + 1) + static_cast<double>(j + 1)) / 2.0;
    for (size_t k = i; k <= j; ++k) {
      if (labels[order[k]] == 1) pos_rank_sum += avg_rank;
    }
    i = j + 1;
  }
  double u = pos_rank_sum -
             static_cast<double>(num_pos) * (static_cast<double>(num_pos) + 1.0) / 2.0;
  return u / (static_cast<double>(num_pos) * static_cast<double>(num_neg));
}

BinaryMetrics EvaluateLearnerTuned(const Learner& learner,
                                   const Dataset& data,
                                   double* best_threshold,
                                   ThreadPool* pool) {
  std::vector<double> scores;
  std::vector<int32_t> labels;
  ScoreAll(learner, data, pool, &scores, &labels);
  int64_t total_pos = 0;
  for (int32_t y : labels) total_pos += y == 1;

  // Sweep thresholds in one pass over score-sorted examples: predicting
  // positive above position i means tp = positives in the suffix.
  std::vector<size_t> order(scores.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&scores](size_t a, size_t b) {
    return scores[a] > scores[b];
  });
  Confusion best;
  best.fn = total_pos;
  best.tn = static_cast<int64_t>(scores.size()) - total_pos;
  double best_f1 = F1(best);  // the all-negative classifier
  double best_tau = scores.empty() ? 0.0 : scores[order[0]] + 1.0;
  Confusion running = best;
  for (size_t i = 0; i < order.size(); ++i) {
    // Move example order[i] to the predicted-positive side.
    if (labels[order[i]] == 1) {
      ++running.tp;
      --running.fn;
    } else {
      ++running.fp;
      --running.tn;
    }
    // Only valid as a threshold at a score boundary.
    if (i + 1 < order.size() &&
        scores[order[i + 1]] == scores[order[i]]) {
      continue;
    }
    double f1 = F1(running);
    if (f1 > best_f1) {
      best_f1 = f1;
      best = running;
      double hi = scores[order[i]];
      double lo = i + 1 < order.size() ? scores[order[i + 1]] : hi - 1.0;
      best_tau = (hi + lo) / 2.0;
    }
  }
  if (best_threshold != nullptr) *best_threshold = best_tau;

  BinaryMetrics m;
  m.confusion = best;
  m.accuracy = Accuracy(best);
  m.precision = Precision(best);
  m.recall = Recall(best);
  m.f1 = F1(best);
  m.auc = AucFromScores(scores, labels);
  return m;
}

BinaryMetrics EvaluateLearner(const Learner& learner, const Dataset& data,
                              ThreadPool* pool) {
  BinaryMetrics m;
  std::vector<double> scores;
  std::vector<int32_t> labels;
  ScoreAll(learner, data, pool, &scores, &labels);
  for (size_t i = 0; i < scores.size(); ++i) {
    m.confusion.Add(labels[i], scores[i] > 0.0 ? 1 : 0);
  }
  m.accuracy = Accuracy(m.confusion);
  m.precision = Precision(m.confusion);
  m.recall = Recall(m.confusion);
  m.f1 = F1(m.confusion);
  m.auc = AucFromScores(scores, labels);
  return m;
}

}  // namespace zombie
