#include "ml/feature_pruner.h"

#include <algorithm>
#include <utility>

#include "ml/simd/sparse_kernels.h"
#include "ml/simd/sparse_kernels_scalar.h"
#include "util/logging.h"

namespace zombie {

Status FeaturePrunerOptions::Validate() const {
  if (!enabled) return Status::OK();
  if (freeze_after_items == 0) {
    return Status::InvalidArgument("pruning.freeze_after_items must be > 0");
  }
  if (prune_fraction < 0.0 || prune_fraction >= 1.0) {
    return Status::InvalidArgument(
        "pruning.prune_fraction must be in [0, 1)");
  }
  return Status::OK();
}

FeaturePrunerOptions ConservativePruning() {
  FeaturePrunerOptions options;
  options.enabled = true;
  options.freeze_after_items = 100;
  options.min_activations = 3;
  options.prune_fraction = 0.5;
  return options;
}

FeaturePrunerOptions AggressivePruning() {
  FeaturePrunerOptions options;
  options.enabled = true;
  options.freeze_after_items = 75;
  options.min_activations = 2;
  options.prune_fraction = 0.9;
  return options;
}

FeaturePruner::FeaturePruner(FeaturePrunerOptions options)
    : options_(options) {}

void FeaturePruner::ObserveExample(SparseVectorView x) {
  if (!options_.enabled || frozen_ || disabled_) return;
  const size_t dim = x.dimension();
  if (activation_count_.size() < dim) activation_count_.resize(dim, 0);
  for (size_t i = 0; i < x.num_nonzero(); ++i) {
    ++activation_count_[x.index_at(i)];
  }
}

bool FeaturePruner::MaybeFreeze(Learner* learner, size_t items) {
  if (!options_.enabled || frozen_ || disabled_) return false;
  if (items < options_.freeze_after_items) return false;
  if (activation_count_.empty()) return false;

  std::vector<double> magnitudes;
  if (!learner->ExportWeightMagnitudes(&magnitudes)) {
    disabled_ = true;  // no per-feature weights (majority): stay a no-op
    return false;
  }

  // Rank eligible features by accumulated influence per activation,
  // ascending, with the feature id as a deterministic tie-break.
  const size_t dim = activation_count_.size();
  struct Ranked {
    double score;
    uint32_t id;
  };
  std::vector<Ranked> eligible;
  eligible.reserve(dim);
  for (size_t f = 0; f < dim; ++f) {
    const uint32_t act = activation_count_[f];
    if (act < options_.min_activations) continue;
    const double w = f < magnitudes.size() ? magnitudes[f] : 0.0;
    eligible.push_back({w / static_cast<double>(act),
                        static_cast<uint32_t>(f)});
  }
  std::sort(eligible.begin(), eligible.end(),
            [](const Ranked& a, const Ranked& b) {
              if (a.score != b.score) return a.score < b.score;
              return a.id < b.id;
            });
  const size_t num_pruned = static_cast<size_t>(
      options_.prune_fraction * static_cast<double>(eligible.size()));

  // Monotone remap: mark pruned ids, then number the kept ids in ascending
  // order so compacted vectors stay sorted.
  remap_.assign(dim, 0);
  for (size_t r = 0; r < num_pruned; ++r) {
    remap_[eligible[r].id] = simd::kPrunedFeature;
  }
  uint32_t next = 0;
  for (size_t f = 0; f < dim; ++f) {
    if (remap_[f] == simd::kPrunedFeature) continue;
    remap_[f] = next++;
  }

  if (!learner->CompactFeatures(remap_, next)) {
    disabled_ = true;
    remap_.clear();
    return false;
  }

  stats_.frozen_at_items = items;
  stats_.input_dimension = dim;
  stats_.eligible_features = eligible.size();
  stats_.kept_features = next;
  stats_.pruned_features = dim - next;
  frozen_ = true;
  activation_count_.clear();
  activation_count_.shrink_to_fit();
  return true;
}

void FeaturePruner::CompactInPlace(SparseVector* x) const {
  if (!frozen_) return;
  x->RemapThrough(remap_.data(), remap_.size());
}

Dataset FeaturePruner::CompactDataset(const Dataset& full) const {
  ZCHECK(frozen_) << "CompactDataset before the mask froze";
  Dataset out;
  std::vector<uint32_t> idx_buf;
  std::vector<double> val_buf;
  for (size_t i = 0; i < full.size(); ++i) {
    const ExampleView e = full.example(i);
    const size_t n = e.x.num_nonzero();
    idx_buf.resize(n);
    val_buf.resize(n);
    // Out-of-place scalar remap: dataset rows are read-only views and this
    // runs once per run (at the freeze), so dispatch overhead is moot.
    const size_t kept = simd::ScalarRemapSparseView(
        e.x.indices_data(), e.x.values_data(), n, remap_.data(),
        remap_.size(), idx_buf.data(), val_buf.data());
    out.Add(SparseVectorView(idx_buf.data(), val_buf.data(), kept), e.y);
  }
  return out;
}

}  // namespace zombie
