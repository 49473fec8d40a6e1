#ifndef ZOMBIE_ML_LEARNER_H_
#define ZOMBIE_ML_LEARNER_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ml/dataset.h"
#include "ml/sparse_vector.h"

namespace zombie {

/// Binary online learner interface. Labels are 0/1.
///
/// The Zombie inner loop feeds one example at a time via Update(); the
/// quality estimator calls Score()/Predict() on the holdout. Batch training
/// is expressed as repeated Update() passes (see Evaluator::TrainEpochs).
class Learner {
 public:
  virtual ~Learner() = default;

  /// Consumes one labeled example (y in {0, 1}).
  virtual void Update(SparseVectorView x, int32_t y) = 0;

  /// Decision value; > 0 means class 1. Magnitude reflects confidence for
  /// margin-based learners, a log-odds ratio for probabilistic ones. An
  /// exact 0 (e.g. an untrained model) classifies as the negative class so
  /// that a blank model does not spuriously "recall" every positive.
  virtual double Score(SparseVectorView x) const = 0;

  /// Scores rows [begin, end) of `data` into out[0 .. end - begin).
  /// Contract: out[k] is bit-identical to Score(data.example(begin + k).x)
  /// — overrides may share work across rows (naive Bayes computes each
  /// feature's log-odds weight once per batch) but never change a result.
  /// Must be const and thread-safe like Score: ScoreAll (ml/metrics.cc)
  /// calls it concurrently on disjoint row ranges.
  virtual void ScoreBatch(const Dataset& data, size_t begin, size_t end,
                          double* out) const {
    for (size_t i = begin; i < end; ++i) {
      out[i - begin] = Score(data.example(i).x);
    }
  }

  /// Hard prediction in {0, 1}. Default thresholds Score at zero
  /// (ties negative).
  virtual int32_t Predict(SparseVectorView x) const {
    return Score(x) > 0.0 ? 1 : 0;
  }

  /// P(y == 1 | x) in [0, 1]. Default squashes Score through a logistic —
  /// exact for the log-odds learners (naive Bayes, both logistic
  /// regressions); learners calibrated some other way override.
  virtual double PredictProbability(SparseVectorView x) const {
    return 1.0 / (1.0 + std::exp(-Score(x)));
  }

  /// Forgets all training state.
  virtual void Reset() = 0;

  /// Fresh, untrained copy with identical hyperparameters.
  virtual std::unique_ptr<Learner> Clone() const = 0;

  /// Short identifier for tables ("nb", "logreg", ...).
  virtual std::string name() const = 0;

  /// Number of Update() calls since construction/Reset.
  virtual size_t num_updates() const = 0;

  /// Per-feature influence magnitudes for the online feature pruner
  /// (ml/feature_pruner.h): out[f] >= 0 measures how much feature f moves
  /// Score(), in whatever units the learner uses internally (|weight| for
  /// linear models, |log-odds contribution| for NB). Returns false when the
  /// learner has no per-feature notion of weight (kNN, majority) — the
  /// pruner then disables itself rather than guess. `out` is resized by the
  /// learner; ids past its size have zero influence.
  virtual bool ExportWeightMagnitudes(std::vector<double>* out) const {
    (void)out;
    return false;
  }

  /// Renumbers per-feature state through a monotone old-id→dense-id table
  /// (simd::kPrunedFeature marks dropped ids; see SparseVector::RemapThrough
  /// for the table contract). After a successful call, scoring a compacted
  /// vector must be bit-identical to scoring the original vector with the
  /// pruned features zeroed out. Returns false (leaving state untouched)
  /// when unsupported.
  virtual bool CompactFeatures(const std::vector<uint32_t>& old_to_new,
                               uint32_t new_dimension) {
    (void)old_to_new;
    (void)new_dimension;
    return false;
  }
};

/// Shared helper for CompactFeatures implementations: renumbers a dense
/// per-feature state vector through the remap table. Entries mapping to
/// simd::kPrunedFeature are dropped; the result has exactly new_dimension
/// slots (absent old entries read as 0.0).
inline void CompactDenseState(const std::vector<uint32_t>& old_to_new,
                              uint32_t new_dimension,
                              std::vector<double>* state) {
  std::vector<double> out(new_dimension, 0.0);
  const size_t n = std::min(state->size(), old_to_new.size());
  for (size_t f = 0; f < n; ++f) {
    const uint32_t dense = old_to_new[f];
    if (dense != simd::kPrunedFeature) out[dense] = (*state)[f];
  }
  state->swap(out);
}

}  // namespace zombie

#endif  // ZOMBIE_ML_LEARNER_H_
