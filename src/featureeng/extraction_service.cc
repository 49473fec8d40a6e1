#include "featureeng/extraction_service.h"

#include <utility>

#include "featureeng/persistent_feature_store.h"
#include "ml/feature_pruner.h"
#include "util/logging.h"

namespace zombie {

namespace {
// Same binary-label convention the engine applies everywhere: positive
// class is label 1, everything else is 0.
int32_t BinaryLabel(int32_t raw) { return raw == 1 ? 1 : 0; }
}  // namespace

ExtractionService::ExtractionService(const FeaturePipeline* pipeline,
                                     FeatureCache* cache,
                                     PersistentFeatureStore* store)
    : pipeline_(pipeline), cache_(cache), store_(store) {
  ZCHECK(pipeline_ != nullptr) << "ExtractionService needs a pipeline";
  if (cache_ != nullptr || store_ != nullptr) {
    fingerprint_ = pipeline_->Fingerprint();
  }
}

SparseVector ExtractionService::Featurize(const Document& doc,
                                          uint32_t doc_id,
                                          const Corpus& corpus,
                                          CacheOutcome* outcome,
                                          const FeaturePruner* pruner) {
  SparseVector x = FeaturizeFull(doc, doc_id, corpus, outcome);
  // View-side compaction: every tier above saw (and stored) the full-
  // dimension vector, so cache/store bytes and outcomes are untouched by
  // pruning; only the caller's copy shrinks.
  if (pruner != nullptr) pruner->CompactInPlace(&x);
  return x;
}

SparseVector ExtractionService::FeaturizeFull(const Document& doc,
                                              uint32_t doc_id,
                                              const Corpus& corpus,
                                              CacheOutcome* outcome) {
  if (cache_ == nullptr) {
    // No memory tier: the store alone still short-circuits wall-clock
    // extraction, while the reported outcome stays kDisabled — exactly
    // what the caller would see with no cache attached at all.
    if (outcome != nullptr) *outcome = CacheOutcome::kDisabled;
    if (store_ != nullptr) {
      if (auto stored = store_->Lookup(fingerprint_, doc_id)) {
        return stored->features;
      }
      FeatureCache::Entry entry{pipeline_->Extract(doc, corpus),
                                BinaryLabel(doc.label),
                                pipeline_->ExtractionCostMicros(doc)};
      store_->Append(fingerprint_, doc_id, entry);
      return std::move(entry.features);
    }
    return pipeline_->Extract(doc, corpus);
  }
  if (auto hit = cache_->Lookup(fingerprint_, doc_id)) {
    if (outcome != nullptr) *outcome = CacheOutcome::kHit;
    return hit->features;
  }
  if (outcome != nullptr) *outcome = CacheOutcome::kMiss;
  if (store_ != nullptr) {
    if (auto stored = store_->Lookup(fingerprint_, doc_id)) {
      // Second-tier hit: fill the memory cache with the stored entry via
      // the same Insert the store-off world would have performed after
      // extracting, so cache-state evolution (and any later eviction
      // behavior) is identical either way.
      cache_->Insert(fingerprint_, doc_id, *stored);
      return std::move(stored->features);
    }
  }
  // One copy on a miss: Insert's by-value parameter is the cache's own
  // copy, and the caller's vector is moved out of `entry` afterwards.
  FeatureCache::Entry entry{pipeline_->Extract(doc, corpus),
                            BinaryLabel(doc.label),
                            pipeline_->ExtractionCostMicros(doc)};
  cache_->Insert(fingerprint_, doc_id, entry);
  if (store_ != nullptr) store_->Append(fingerprint_, doc_id, entry);
  return std::move(entry.features);
}

int64_t ExtractionService::ExtractionCostMicros(const Document& doc) const {
  return pipeline_->ExtractionCostMicros(doc);
}

}  // namespace zombie
