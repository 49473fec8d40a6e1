#include "featureeng/extraction_service.h"

#include <utility>

#include "featureeng/persistent_feature_store.h"
#include "ml/feature_pruner.h"
#include "obs/metrics.h"
#include "util/logging.h"

namespace zombie {

namespace {
// Same binary-label convention the engine applies everywhere: positive
// class is label 1, everything else is 0.
int32_t BinaryLabel(int32_t raw) { return raw == 1 ? 1 : 0; }
}  // namespace

ExtractionService::ExtractionService(const FeaturePipeline* pipeline,
                                     FeatureCache* cache,
                                     PrefetchOptions prefetch,
                                     TraceRecorder* trace,
                                     PersistentFeatureStore* store)
    : pipeline_(pipeline),
      cache_(cache),
      prefetch_(prefetch),
      trace_(trace),
      store_(store) {
  ZCHECK(pipeline_ != nullptr) << "ExtractionService needs a pipeline";
  if (cache_ != nullptr || store_ != nullptr) {
    fingerprint_ = pipeline_->Fingerprint();
  }
  // Speculation needs both workers and a cache to put results into.
  if (prefetch_.threads > 0 && cache_ != nullptr) {
    pool_ = std::make_unique<ThreadPool>(prefetch_.threads);
  }
}

ExtractionService::~ExtractionService() {
  CancelPrefetch();
  // ThreadPool's destructor drains the queue: cancelled tasks bail on the
  // generation check, running tasks finish their current document. After
  // this no task can touch the borrowed pipeline/cache/corpus.
  pool_.reset();
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
  bool speculative_first_touch = false;
  if (auto hit = cache_->LookupForExtraction(fingerprint_, doc_id,
                                             &speculative_first_touch)) {
    if (speculative_first_touch) {
      // Without prefetch this would have been a miss followed by an
      // extraction + insert; report it as such so downstream accounting
      // (DecisionLog cache outcomes, cache hit/miss stats) is identical.
      useful_.fetch_add(1, std::memory_order_relaxed);
      if (outcome != nullptr) *outcome = CacheOutcome::kMiss;
    } else {
      if (outcome != nullptr) *outcome = CacheOutcome::kHit;
    }
    return hit->features;
  }
  if (outcome != nullptr) *outcome = CacheOutcome::kMiss;
  if (store_ != nullptr) {
    if (auto stored = store_->Lookup(fingerprint_, doc_id)) {
      // Second-tier hit: fill the memory cache with the stored entry via
      // the same non-speculative Insert the store-off world would have
      // performed after extracting, so cache-state evolution (and any
      // later eviction behavior) is identical either way.
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

size_t ExtractionService::EnqueuePrefetch(
    const Corpus& corpus, const std::vector<uint32_t>& doc_ids) {
  if (pool_ == nullptr) return 0;
  const uint64_t gen = generation_.load(std::memory_order_acquire);
  const Corpus* corpus_ptr = &corpus;
  size_t submitted = 0;
  for (uint32_t doc_id : doc_ids) {
    if (cache_->Contains(fingerprint_, doc_id)) {
      skipped_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    // Bounded speculation: never more than queue_cap outstanding tasks.
    size_t in_flight = in_flight_.load(std::memory_order_relaxed);
    bool reserved = false;
    while (in_flight < prefetch_.queue_cap) {
      if (in_flight_.compare_exchange_weak(in_flight, in_flight + 1,
                                           std::memory_order_relaxed)) {
        reserved = true;
        break;
      }
    }
    if (!reserved) {
      skipped_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    enqueued_.fetch_add(1, std::memory_order_relaxed);
    ++submitted;
    pool_->Submit([this, corpus_ptr, doc_id, gen] {
      if (generation_.load(std::memory_order_acquire) != gen) {
        cancelled_.fetch_add(1, std::memory_order_relaxed);
        in_flight_.fetch_sub(1, std::memory_order_relaxed);
        return;
      }
      bool created;
      if (store_ != nullptr) {
        if (auto stored = store_->Lookup(fingerprint_, doc_id)) {
          // Second-tier hit: promote to a speculative memory entry with no
          // extraction (and no trace span — no pipeline work ran).
          created = cache_->InsertSpeculative(fingerprint_, doc_id,
                                              std::move(*stored));
          if (created) {
            issued_.fetch_add(1, std::memory_order_relaxed);
          } else {
            skipped_.fetch_add(1, std::memory_order_relaxed);
          }
          in_flight_.fetch_sub(1, std::memory_order_relaxed);
          return;
        }
      }
      TraceSpan span(trace_, "prefetch.extract", "prefetch");
      const Document& doc = corpus_ptr->doc(doc_id);
      SparseVector x = pipeline_->Extract(doc, *corpus_ptr);
      FeatureCache::Entry entry{std::move(x), BinaryLabel(doc.label),
                                pipeline_->ExtractionCostMicros(doc)};
      if (store_ != nullptr) store_->Append(fingerprint_, doc_id, entry);
      created =
          cache_->InsertSpeculative(fingerprint_, doc_id, std::move(entry));
      if (created) {
        issued_.fetch_add(1, std::memory_order_relaxed);
      } else {
        // Lost the race to the engine's own insert (or another worker):
        // the extraction was redundant.
        skipped_.fetch_add(1, std::memory_order_relaxed);
      }
      in_flight_.fetch_sub(1, std::memory_order_relaxed);
    });
  }
  return submitted;
}

void ExtractionService::CancelPrefetch() {
  if (pool_ == nullptr) return;
  generation_.fetch_add(1, std::memory_order_release);
}

void ExtractionService::DrainPrefetch() {
  if (pool_ == nullptr) return;
  pool_->Wait();
}

PrefetchStats ExtractionService::prefetch_stats() const {
  PrefetchStats s;
  s.enqueued = enqueued_.load(std::memory_order_relaxed);
  s.issued = issued_.load(std::memory_order_relaxed);
  s.useful = useful_.load(std::memory_order_relaxed);
  s.cancelled = cancelled_.load(std::memory_order_relaxed);
  s.skipped = skipped_.load(std::memory_order_relaxed);
  return s;
}

void ExtractionService::ExportMetrics(MetricsRegistry* metrics) const {
  if (metrics == nullptr) return;
  if (store_ != nullptr) store_->ExportMetrics(metrics);
  if (pool_ == nullptr) return;
  MutexLock lock(&export_mu_);
  PrefetchStats now = prefetch_stats();
  // Counters are increment-only, so export the delta since the previous
  // export; repeated exports (one per engine run on a shared service)
  // accumulate to the lifetime totals without double-counting.
  metrics->GetCounter("prefetch.enqueued")
      ->Increment(now.enqueued - exported_.enqueued);
  metrics->GetCounter("prefetch.issued")
      ->Increment(now.issued - exported_.issued);
  metrics->GetCounter("prefetch.useful")
      ->Increment(now.useful - exported_.useful);
  // wasted() can shrink between exports (an issued entry becomes useful
  // later), so clamp the delta: the counter tracks the high-water growth
  // and may overshoot the instantaneous wasted() by design.
  metrics->GetCounter("prefetch.wasted")
      ->Increment(now.wasted() > exported_.wasted()
                      ? now.wasted() - exported_.wasted()
                      : 0);
  metrics->GetCounter("prefetch.cancelled")
      ->Increment(now.cancelled - exported_.cancelled);
  metrics->GetGauge("prefetch.hit_rate")->Set(now.hit_rate());
  exported_ = now;
}

int64_t ExtractionService::ExtractionCostMicros(const Document& doc) const {
  return pipeline_->ExtractionCostMicros(doc);
}

}  // namespace zombie
