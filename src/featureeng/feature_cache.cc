#include "featureeng/feature_cache.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "util/logging.h"
#include "util/random.h"

namespace zombie {

size_t FeatureCache::KeyHash::operator()(const Key& k) const {
  return static_cast<size_t>(HashCombine(k.fingerprint, k.doc_id));
}

FeatureCache::FeatureCache(FeatureCacheOptions options)
    : options_(options) {
  ZCHECK_GE(options_.capacity, 1u);
}

std::shared_ptr<const FeatureCache::Entry> FeatureCache::Lookup(
    uint64_t pipeline_fingerprint, uint32_t doc_id) {
  uint64_t now = tick_.fetch_add(1, std::memory_order_relaxed) + 1;
  {
    ReaderMutexLock lock(&mu_);
    auto it = map_.find(Key{pipeline_fingerprint, doc_id});
    if (it != map_.end()) {
      it->second->last_used.store(now, std::memory_order_relaxed);
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second->entry;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

void FeatureCache::Insert(uint64_t pipeline_fingerprint, uint32_t doc_id,
                          Entry entry) {
  uint64_t now = tick_.fetch_add(1, std::memory_order_relaxed) + 1;
  auto slot = std::make_unique<Slot>(
      std::make_shared<const Entry>(std::move(entry)), now);
  WriterMutexLock lock(&mu_);
  auto [it, inserted] =
      map_.try_emplace(Key{pipeline_fingerprint, doc_id}, nullptr);
  if (!inserted) {
    // First writer wins; just refresh recency.
    it->second->last_used.store(now, std::memory_order_relaxed);
    return;
  }
  it->second = std::move(slot);
  inserts_.fetch_add(1, std::memory_order_relaxed);
  if (map_.size() > options_.capacity) EvictLocked();
}

void FeatureCache::EvictLocked() {
  // Batch eviction: drop the stalest entries down to 7/8 of capacity, so
  // the O(n) recency scan amortizes over ~capacity/8 subsequent inserts.
  size_t target = options_.capacity - options_.capacity / 8;
  target = std::max<size_t>(target, 1);
  if (map_.size() <= target) return;
  std::vector<std::pair<uint64_t, Key>> recency;
  recency.reserve(map_.size());
  // Iteration order is hash-seed-dependent, but only the *set* of stalest
  // entries matters here and nth_element orders by recency tick; eviction
  // affects wall-clock hit rates and logged cache outcomes, never
  // virtual-time results.
  for (const auto& [key, slot] : map_) {  // zombie-lint: allow(no-unordered-iteration)
    recency.emplace_back(slot->last_used.load(std::memory_order_relaxed),
                         key);
  }
  size_t to_evict = map_.size() - target;
  std::nth_element(
      recency.begin(),
      recency.begin() + static_cast<std::ptrdiff_t>(to_evict - 1),
      recency.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  for (size_t i = 0; i < to_evict; ++i) {
    map_.erase(recency[i].second);
  }
  evictions_.fetch_add(to_evict, std::memory_order_relaxed);
}

void FeatureCache::Clear() {
  WriterMutexLock lock(&mu_);
  evictions_.fetch_add(map_.size(), std::memory_order_relaxed);
  map_.clear();
}

FeatureCacheStats FeatureCache::Stats() const {
  FeatureCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.inserts = inserts_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  ReaderMutexLock lock(&mu_);
  s.entries = map_.size();
  return s;
}

void FeatureCache::ExportMetrics(MetricsRegistry* metrics) const {
  if (metrics == nullptr) return;
  FeatureCacheStats s = Stats();
  metrics->GetGauge("featureeng.cache.entries")
      ->Set(static_cast<double>(s.entries));
  metrics->GetGauge("featureeng.cache.inserts")
      ->Set(static_cast<double>(s.inserts));
  metrics->GetGauge("featureeng.cache.evictions")
      ->Set(static_cast<double>(s.evictions));
  metrics->GetGauge("featureeng.cache.hits_total")
      ->Set(static_cast<double>(s.hits));
  metrics->GetGauge("featureeng.cache.misses_total")
      ->Set(static_cast<double>(s.misses));
  metrics->GetGauge("featureeng.cache.hit_rate")->Set(s.hit_rate());
}

}  // namespace zombie
