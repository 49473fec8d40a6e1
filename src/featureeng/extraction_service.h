#ifndef ZOMBIE_FEATUREENG_EXTRACTION_SERVICE_H_
#define ZOMBIE_FEATUREENG_EXTRACTION_SERVICE_H_

#include <cstdint>

#include "data/corpus.h"
#include "featureeng/feature_cache.h"
#include "featureeng/pipeline.h"
#include "ml/sparse_vector.h"
#include "obs/decision_log.h"

namespace zombie {

class FeaturePruner;
class PersistentFeatureStore;

/// The single entry point for feature extraction: a facade over the
/// pipeline, the optional FeatureCache and an optional
/// PersistentFeatureStore. Everything that featurizes a document — engine
/// inner loop, holdout setup, experiment driver, benches — goes through
/// Featurize() so cache policy lives in exactly one place (enforced by
/// zombie_lint's no-raw-extract-outside-service rule).
///
/// Tiering: the in-memory FeatureCache is the first tier, the persistent
/// store the second. A memory miss consults the store; a store hit fills
/// the memory cache with the stored entry (the same Insert the store-off
/// world would have performed after extracting) and is still reported as
/// CacheOutcome::kMiss — the store only ever short-circuits wall-clock
/// extraction work, never accounting. A miss-in-both extracts and writes
/// through to both tiers.
///
/// Ownership contract: the service *borrows* the pipeline, cache, and
/// store; all must outlive it.
///
/// Equivalence contract (extends the FeatureCache contract): the tiers are
/// wall-clock-only. RunResult and every virtual-time number are
/// byte-identical with or without them. The reported CacheOutcome depends
/// only on the memory cache's contents, which earlier Featurize calls and
/// evictions determine, so DecisionLog JSONL is byte-identical with the
/// store disabled, cold, or warm.
///
/// Thread safety: Featurize may be called from multiple threads
/// concurrently (the experiment driver shares one service across trial
/// workers); the pipeline is stateless and the cache and store are
/// internally synchronized.
class ExtractionService {
 public:
  explicit ExtractionService(const FeaturePipeline* pipeline,
                             FeatureCache* cache = nullptr,
                             PersistentFeatureStore* store = nullptr);

  ExtractionService(const ExtractionService&) = delete;
  ExtractionService& operator=(const ExtractionService&) = delete;

  /// Featurizes one document, memoized through the cache when one is
  /// attached. `outcome` (optional) reports the cache interaction:
  /// kDisabled (no cache), kHit, or kMiss (a store hit included).
  ///
  /// `pruner` (optional, borrowed) applies online feature pruning as a
  /// view-side transform on the return path: the cache and store tiers stay
  /// keyed and populated at full dimension (entries remain valid across a
  /// mid-run freeze and across prune settings), and only the vector handed
  /// back is compacted. A null or not-yet-frozen pruner changes nothing.
  SparseVector Featurize(const Document& doc, uint32_t doc_id,
                         const Corpus& corpus,
                         CacheOutcome* outcome = nullptr,
                         const FeaturePruner* pruner = nullptr);

  /// Virtual extraction cost passthrough (see FeaturePipeline).
  int64_t ExtractionCostMicros(const Document& doc) const;

  const FeaturePipeline& pipeline() const { return *pipeline_; }
  FeatureCache* cache() const { return cache_; }
  PersistentFeatureStore* store() const { return store_; }
  uint64_t pipeline_fingerprint() const { return fingerprint_; }

 private:
  /// The pre-pruning extraction path (all cache/store tiering); Featurize
  /// compacts its result when a frozen pruner is passed.
  SparseVector FeaturizeFull(const Document& doc, uint32_t doc_id,
                             const Corpus& corpus, CacheOutcome* outcome);

  const FeaturePipeline* pipeline_;
  FeatureCache* cache_;
  /// Optional second cache tier (borrowed); consulted on memory miss,
  /// written through on extraction.
  PersistentFeatureStore* store_;
  /// Computed once: FeaturePipeline::Fingerprint hashes every extractor.
  uint64_t fingerprint_ = 0;
};

}  // namespace zombie

#endif  // ZOMBIE_FEATUREENG_EXTRACTION_SERVICE_H_
