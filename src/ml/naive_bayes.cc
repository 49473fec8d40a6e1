#include "ml/naive_bayes.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace zombie {

void NaiveBayesLearner::Update(SparseVectorView x, int32_t y) {
  ZCHECK(y == 0 || y == 1) << "binary labels required, got " << y;
  ++num_updates_;
  class_count_[y] += 1.0;
  dimension_ = std::max(dimension_, x.dimension());
  auto& counts = token_count_[y];
  if (counts.size() < x.dimension()) counts.resize(x.dimension(), 0.0);
  for (size_t i = 0; i < x.num_nonzero(); ++i) {
    double v = x.value_at(i);
    if (v <= 0.0) continue;  // multinomial NB: counts only
    counts[x.index_at(i)] += v;
    token_total_[y] += v;
  }
}

NaiveBayesLearner::Smoothing NaiveBayesLearner::CurrentSmoothing() const {
  Smoothing s;
  // Smoothed class prior log-ratio.
  double prior1 = (class_count_[1] + 1.0) /
                  (class_count_[0] + class_count_[1] + 2.0);
  s.log_prior = std::log(prior1 / (1.0 - prior1));
  double v_dim = static_cast<double>(std::max<size_t>(dimension_, 1));
  s.denom0 = token_total_[0] + kAlpha * v_dim;
  s.denom1 = token_total_[1] + kAlpha * v_dim;
  return s;
}

double NaiveBayesLearner::FeatureWeight(size_t f, const Smoothing& s) const {
  double c0 = f < token_count_[0].size() ? token_count_[0][f] : 0.0;
  double c1 = f < token_count_[1].size() ? token_count_[1][f] : 0.0;
  double lp1 = std::log((c1 + kAlpha) / s.denom1);
  double lp0 = std::log((c0 + kAlpha) / s.denom0);
  return lp1 - lp0;
}

double NaiveBayesLearner::LogOdds(SparseVectorView x) const {
  // Uninformed model: even log-odds.
  if (class_count_[0] + class_count_[1] == 0.0) return 0.0;
  const Smoothing s = CurrentSmoothing();
  double log_odds = s.log_prior;
  for (size_t i = 0; i < x.num_nonzero(); ++i) {
    double v = x.value_at(i);
    if (v <= 0.0) continue;
    log_odds += v * FeatureWeight(x.index_at(i), s);
  }
  return log_odds;
}

double NaiveBayesLearner::Score(SparseVectorView x) const {
  return LogOdds(x);
}

void NaiveBayesLearner::ScoreBatch(const Dataset& data, double* out) const {
  if (class_count_[0] + class_count_[1] == 0.0) {
    std::fill(out, out + data.size(), 0.0);
    return;
  }
  // LogOdds with its per-feature weight hoisted out of the row loop: one
  // dense pass computes the weight of each of the dataset's feature slots,
  // and each row then accumulates v * weight in its own nonzero order —
  // the same operations as LogOdds, so every score is bit-identical to
  // Score(). A zero count gives (0.0 + kAlpha) == kAlpha exactly, so its
  // log is computed once per class and shared by every such feature.
  const Smoothing s = CurrentSmoothing();
  const double zero_lp0 = std::log(kAlpha / s.denom0);
  const double zero_lp1 = std::log(kAlpha / s.denom1);
  const auto log_p = [](const std::vector<double>& counts, uint32_t f,
                        double denom, double zero_lp) {
    const double c = f < counts.size() ? counts[f] : 0.0;
    return c == 0.0 ? zero_lp : std::log((c + kAlpha) / denom);
  };
  const std::vector<uint32_t>& ids = data.slot_ids();
  std::vector<double> w(ids.size());
  for (size_t slot = 0; slot < ids.size(); ++slot) {
    w[slot] = log_p(token_count_[1], ids[slot], s.denom1, zero_lp1) -
              log_p(token_count_[0], ids[slot], s.denom0, zero_lp0);
  }
  for (size_t r = 0; r < data.size(); ++r) {
    const SparseVectorView x = data.example(r).x;
    const uint32_t* slots = data.row_slots(r);
    double log_odds = s.log_prior;
    for (size_t i = 0; i < x.num_nonzero(); ++i) {
      const double v = x.value_at(i);
      if (v <= 0.0) continue;
      log_odds += v * w[slots[i]];
    }
    out[r] = log_odds;
  }
}

void NaiveBayesLearner::Reset() {
  num_updates_ = 0;
  class_count_[0] = class_count_[1] = 0.0;
  token_total_[0] = token_total_[1] = 0.0;
  token_count_[0].clear();
  token_count_[1].clear();
  dimension_ = 0;
}

std::unique_ptr<Learner> NaiveBayesLearner::Clone() const {
  return std::make_unique<NaiveBayesLearner>();
}

bool NaiveBayesLearner::ExportWeightMagnitudes(
    std::vector<double>* out) const {
  // Per unit of feature value, feature f moves LogOdds by (lp1 - lp0); its
  // magnitude is the pruning signal. Never-seen features get the nonzero
  // background |log(denom0/denom1)| — harmless, since the pruner divides by
  // activation count and gates on a minimum-activation floor.
  const size_t dim = std::max(token_count_[0].size(), token_count_[1].size());
  out->assign(dim, 0.0);
  const Smoothing s = CurrentSmoothing();
  for (size_t f = 0; f < dim; ++f) (*out)[f] = std::abs(FeatureWeight(f, s));
  return true;
}

bool NaiveBayesLearner::CompactFeatures(
    const std::vector<uint32_t>& old_to_new, uint32_t new_dimension) {
  // dimension_ and token_total_ deliberately keep their frozen full-space
  // values: the smoothing denominators must not move, so that scoring a
  // compacted vector stays bit-identical to scoring the original vector
  // with the pruned features zeroed out (the contract in learner.h).
  CompactDenseState(old_to_new, new_dimension, &token_count_[0]);
  CompactDenseState(old_to_new, new_dimension, &token_count_[1]);
  return true;
}

}  // namespace zombie
