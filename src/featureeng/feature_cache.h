#ifndef ZOMBIE_FEATUREENG_FEATURE_CACHE_H_
#define ZOMBIE_FEATUREENG_FEATURE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "ml/sparse_vector.h"
#include "util/thread_annotations.h"

namespace zombie {

class MetricsRegistry;

struct FeatureCacheOptions {
  /// Maximum number of cached (revision, doc) vectors. When an insert would
  /// exceed it, roughly the oldest eighth of the cache is evicted in one
  /// batch (amortized LRU — see class comment).
  size_t capacity = 1 << 18;
};

/// Counter snapshot; all counters are cumulative since construction.
struct FeatureCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t evictions = 0;
  size_t entries = 0;

  /// Hits / lookups, or 0.0 before the first lookup.
  double hit_rate() const {
    uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

/// Thread-safe, capacity-bounded memo of feature extraction:
///
///   (pipeline revision fingerprint, doc id) -> (features, label, cost)
///
/// The paper's premise is that feature extraction dominates the inner loop,
/// and a feature-engineering session re-runs near-identical revisions over
/// the same corpus — so unchanged-prefix revisions can skip re-extraction
/// entirely. Correctness contract: FeaturePipeline::Extract is
/// deterministic and the fingerprint captures every behavior-affecting knob
/// (see FeaturePipeline::Fingerprint), so a hit returns exactly the vector
/// extraction would have produced; the engine still charges the *virtual*
/// clock the full extraction cost, keeping all paper numbers byte-identical
/// with the cache on or off (only wall-clock time shrinks).
///
/// Concurrency: lookups take a shared lock and bump an atomic recency stamp
/// on the entry; inserts take an exclusive lock. Eviction is "LRU-ish":
/// exact LRU order would force writes on the read path, so reads are
/// stamped from a global atomic tick and inserts evict the stalest ~1/8 of
/// entries in a batch once capacity is exceeded.
///
/// Entries are handed out as shared_ptr<const Entry>, so a reader's vector
/// stays valid even if the entry is evicted concurrently.
class FeatureCache {
 public:
  struct Entry {
    SparseVector features;
    int32_t label = 0;
    int64_t cost_micros = 0;
  };

  explicit FeatureCache(FeatureCacheOptions options = {});

  FeatureCache(const FeatureCache&) = delete;
  FeatureCache& operator=(const FeatureCache&) = delete;

  /// Returns the cached entry, or nullptr on miss. Counts a hit/miss.
  std::shared_ptr<const Entry> Lookup(uint64_t pipeline_fingerprint,
                                      uint32_t doc_id) ZOMBIE_EXCLUDES(mu_);

  /// Inserts (or keeps the existing entry for) the key; may evict. The
  /// first writer wins on a duplicate key — values for a given key are
  /// identical by the determinism contract, so which copy survives is
  /// irrelevant.
  void Insert(uint64_t pipeline_fingerprint, uint32_t doc_id, Entry entry)
      ZOMBIE_EXCLUDES(mu_);

  /// Drops every entry (counts as evictions).
  void Clear() ZOMBIE_EXCLUDES(mu_);

  FeatureCacheStats Stats() const ZOMBIE_EXCLUDES(mu_);

  /// Publishes the current Stats() into `metrics` as gauges under
  /// "featureeng.cache.*" (entries, inserts, evictions, hit_rate, plus
  /// lifetime hits/misses as *_total). Gauges, not counters: this is a
  /// snapshot export, safe to call repeatedly without double-counting.
  /// No-op when `metrics` is null.
  void ExportMetrics(MetricsRegistry* metrics) const;

  size_t capacity() const { return options_.capacity; }

 private:
  struct Slot {
    std::shared_ptr<const Entry> entry;
    /// Tick of the last lookup/insert touching this slot; mutable under the
    /// shared lock via the atomic.
    std::atomic<uint64_t> last_used{0};

    Slot() = default;
    Slot(std::shared_ptr<const Entry> e, uint64_t tick)
        : entry(std::move(e)), last_used(tick) {}
  };

  struct Key {
    uint64_t fingerprint;
    uint32_t doc_id;
    bool operator==(const Key& o) const {
      return fingerprint == o.fingerprint && doc_id == o.doc_id;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const;
  };

  /// Removes the oldest entries until size <= capacity * 7/8. Caller holds
  /// the exclusive lock.
  void EvictLocked() ZOMBIE_REQUIRES(mu_);

  FeatureCacheOptions options_;
  mutable SharedMutex mu_;
  std::unordered_map<Key, std::unique_ptr<Slot>, KeyHash> map_
      ZOMBIE_GUARDED_BY(mu_);
  std::atomic<uint64_t> tick_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> inserts_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace zombie

#endif  // ZOMBIE_FEATUREENG_FEATURE_CACHE_H_
