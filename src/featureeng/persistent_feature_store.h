#ifndef ZOMBIE_FEATUREENG_PERSISTENT_FEATURE_STORE_H_
#define ZOMBIE_FEATUREENG_PERSISTENT_FEATURE_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "featureeng/feature_cache.h"
#include "util/file_lock.h"
#include "util/mmap_file.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace zombie {

class MetricsRegistry;

struct PersistentFeatureStoreOptions {
  /// Hash buckets allocated when the file is created (or re-initialized
  /// after header corruption). Ignored when opening an existing store —
  /// the on-disk header wins.
  uint64_t num_buckets = 1u << 14;
  /// Force reader role even if the writer lock is free.
  bool read_only = false;
  /// Versioned invalidation: when non-empty, records whose pipeline
  /// fingerprint is not in this set are unlinked at open (writer role
  /// only; readers never mutate the file) and counted in
  /// Stats().invalidated. Empty retains everything.
  std::vector<uint64_t> retain_fingerprints;
};

/// Cumulative counters since Open (recovered/invalidated/corrupt_skipped
/// are set by the open-time scan and never move afterwards).
struct PersistentFeatureStoreStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t appends = 0;
  /// Committed records recovered by the open-time chain walk.
  uint64_t recovered = 0;
  /// Records dropped because their fingerprint was not retained.
  uint64_t invalidated = 0;
  /// Torn/corrupt records skipped at open (CRC or bounds failure), plus 1
  /// when the header itself was invalid and the store cold-started.
  uint64_t corrupt_skipped = 0;
  /// Records visible to this process (recovered + appends).
  uint64_t entries = 0;
  bool writable = false;

  double hit_rate() const {
    uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

/// On-disk, mmap-backed feature store: the persistent second tier behind
/// the in-memory FeatureCache, keyed by the same (pipeline fingerprint,
/// doc id) scheme, shared across processes and surviving restarts.
///
/// File format (all integers little-endian on every supported target;
/// see DESIGN.md "Persistent feature store"):
///
///   [header 64B]  magic "ZFSTORE1", schema version, bucket count, arena
///                 watermark, writer-open generation counter
///   [bucket index] num_buckets x u64 — absolute offset of the newest
///                 record in the bucket's chain (0 = empty)
///   [arena]       append-only 8-byte-aligned records:
///                 crc32(body) | payload_len | payload{next, body{fingerprint,
///                 doc_id, label, cost_micros, nnz, indices[], values[]}}
///                 (the CRC excludes the `next` link: unlinking an
///                 invalidated record atomically repoints the previous
///                 record's link, which must not invalidate its CRC)
///
/// Commit protocol: a record is written fully into free arena space, then
/// published by flipping the bucket head (a single aligned 8-byte release
/// store) to point at it — that flip IS the commit point. A writer killed
/// mid-append leaves either an unreachable partial record (overwritten by
/// the next writer) or a fully committed one; the open-time scan walks
/// every chain, CRC- and bounds-checks each record, truncates a chain at
/// the first invalid record (counted corrupt_skipped), and recomputes the
/// arena watermark from the committed records it found. A corrupt header
/// cold-starts the store (writer re-initializes in place, never shrinking
/// the file; a reader just runs empty) instead of aborting.
///
/// Roles: at Open the store tries the advisory writer lock
/// (`<path>.lock`, util/file_lock.h). Exactly one process holds it and
/// appends; everyone else degrades to read-only (shared lock, or lock-free
/// when a writer is active — reads are safe without the lock because
/// published records are immutable and readers validate bounds + CRC
/// against their own mapping). A reader's view is the file at its open
/// plus any records the writer publishes inside that mapped range.
///
/// Accounting contract (the same as-if discipline as FeatureCache): the
/// store only ever short-circuits *wall-clock* extraction
/// work. ExtractionService reports a store hit as a cache *miss* — what
/// the caller would have seen with no store — and the engine charges the
/// virtual clock the full extraction cost it computes from the pipeline,
/// so RunResult and DecisionLog JSONL are byte-identical with the store
/// disabled, cold, or warm.
///
/// In-process concurrency: internally synchronized. Lookups take a shared
/// lock, appends an exclusive one (Grow may remap the file, so the
/// exclusive lock also fences readers off a moving mapping).
class PersistentFeatureStore {
 public:
  /// Opens (creating if absent, in writer role) the store at `path`.
  /// Errors only on unrecoverable environment problems (unmappable path,
  /// IO failure) — data-level corruption is recovered, never an error.
  static StatusOr<std::unique_ptr<PersistentFeatureStore>> Open(
      const std::string& path, PersistentFeatureStoreOptions options = {});

  ~PersistentFeatureStore();

  PersistentFeatureStore(const PersistentFeatureStore&) = delete;
  PersistentFeatureStore& operator=(const PersistentFeatureStore&) = delete;

  /// Returns the stored entry (features, label, recorded virtual cost),
  /// or nullopt. Counts a hit or miss.
  std::optional<FeatureCache::Entry> Lookup(uint64_t pipeline_fingerprint,
                                            uint32_t doc_id)
      ZOMBIE_EXCLUDES(mu_);

  /// Appends and publishes one record. Returns false without writing when
  /// the store is read-only or the key is already present (records are
  /// immutable; first writer wins, same as FeatureCache::Insert).
  bool Append(uint64_t pipeline_fingerprint, uint32_t doc_id,
              const FeatureCache::Entry& entry) ZOMBIE_EXCLUDES(mu_);

  /// True in writer role (holds the exclusive advisory lock).
  bool writable() const { return writable_; }

  const std::string& path() const { return path_; }

  /// Writer-open counter from the header (bumped once per writer Open).
  uint64_t generation() const { return generation_; }

  PersistentFeatureStoreStats Stats() const ZOMBIE_EXCLUDES(mu_);

  /// Publishes Stats() into `metrics` as gauges under "store.*": hits,
  /// misses, appends, recovered, invalidated, corrupt_skipped, entries,
  /// hit_rate. Snapshot semantics (safe to export repeatedly). No-op when
  /// `metrics` is null.
  void ExportMetrics(MetricsRegistry* metrics) const;

 private:
  PersistentFeatureStore(std::string path,
                         PersistentFeatureStoreOptions options);

  /// Creates or validates the file and runs the recovery scan. Called
  /// once from Open before the object is shared.
  Status Init() ZOMBIE_EXCLUDES(mu_);
  /// Writes a fresh header + zeroed bucket index (never shrinks the
  /// file). Writer role only.
  Status ColdStartLocked() ZOMBIE_REQUIRES(mu_);
  /// Walks every bucket chain: validates records, unlinks invalidated
  /// fingerprints (writer), truncates at corruption, recomputes the arena
  /// watermark.
  void RecoverLocked() ZOMBIE_REQUIRES(mu_);
  /// Validates one record at `offset` against the current mapping (bounds,
  /// length, CRC, and a `next` link pointing strictly backwards); fills
  /// `*next` and `*record_end` on success.
  bool ValidateRecordLocked(uint64_t offset, uint64_t* next,
                            uint64_t* record_end) const
      ZOMBIE_REQUIRES_SHARED(mu_);
  /// Chain search; returns the record offset or 0.
  uint64_t FindLocked(uint64_t pipeline_fingerprint, uint32_t doc_id) const
      ZOMBIE_REQUIRES_SHARED(mu_);

  const std::string path_;
  const PersistentFeatureStoreOptions options_;

  /// Writer-role advisory lock (held for the store's lifetime); empty in
  /// reader role.
  FileLock write_lock_;
  bool writable_ = false;
  /// Set when the store runs with no usable mapping (reader role with a
  /// missing or unmappable file): every lookup misses, every append drops.
  bool detached_ = false;
  uint64_t generation_ = 0;

  mutable SharedMutex mu_;
  MmapFile file_ ZOMBIE_GUARDED_BY(mu_);
  /// Fixed per-open layout (from the validated header).
  uint64_t num_buckets_ ZOMBIE_GUARDED_BY(mu_) = 0;
  uint64_t arena_offset_ ZOMBIE_GUARDED_BY(mu_) = 0;
  /// Next append position (absolute file offset), recomputed at open.
  uint64_t arena_used_ ZOMBIE_GUARDED_BY(mu_) = 0;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> appends_{0};
  std::atomic<uint64_t> recovered_{0};
  std::atomic<uint64_t> invalidated_{0};
  std::atomic<uint64_t> corrupt_skipped_{0};
  std::atomic<uint64_t> entries_{0};
};

}  // namespace zombie

#endif  // ZOMBIE_FEATUREENG_PERSISTENT_FEATURE_STORE_H_
