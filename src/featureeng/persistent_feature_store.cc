#include "featureeng/persistent_feature_store.h"

#include <algorithm>
#include <cstring>

#include "obs/metrics.h"
#include "util/crc32.h"
#include "util/logging.h"
#include "util/random.h"

namespace zombie {

namespace {

// --- On-disk layout constants (header is 64 bytes; see the class
// comment for the full format). ------------------------------------------
constexpr uint64_t kHeaderSize = 64;
constexpr uint32_t kSchemaVersion = 1;
constexpr uint64_t kMaxBuckets = 1ull << 26;
// Header field offsets.
constexpr uint64_t kMagicOffset = 0;        // u64
constexpr uint64_t kVersionOffset = 8;      // u32 (+4 reserved)
constexpr uint64_t kNumBucketsOffset = 16;  // u64
constexpr uint64_t kArenaUsedOffset = 24;   // u64
constexpr uint64_t kGenerationOffset = 32;  // u64
// Record payload layout (relative to payload start = record + 8).
constexpr uint64_t kPayloadNext = 0;         // u64: older record in chain
constexpr uint64_t kPayloadFingerprint = 8;  // u64
constexpr uint64_t kPayloadDocId = 16;       // u32
constexpr uint64_t kPayloadLabel = 20;       // i32
constexpr uint64_t kPayloadCost = 24;        // i64
constexpr uint64_t kPayloadNnz = 32;         // u32 (+4 pad)
constexpr uint64_t kPayloadIndices = 40;     // u32[nnz], then pad to 8
constexpr uint64_t kPayloadFixedSize = 40;
// Minimum file growth per Grow (amortizes remaps for small records).
constexpr uint64_t kGrowChunk = 1ull << 20;

uint64_t Magic() {
  uint64_t m = 0;
  std::memcpy(&m, "ZFSTORE1", sizeof(m));
  return m;
}

// Payload bytes for nnz nonzeros: fixed fields, u32 indices padded so the
// f64 values start 8-aligned (record offsets are always 8-aligned).
uint64_t PayloadLen(uint64_t nnz) {
  uint64_t idx_bytes = nnz * 4;
  if (nnz % 2 != 0) idx_bytes += 4;
  return kPayloadFixedSize + idx_bytes + nnz * 8;
}

uint64_t RecordSize(uint64_t payload_len) { return 8 + payload_len; }

// Unaligned-safe little-endian loads/stores. Every supported target is
// little-endian, so memcpy of the native representation is the format.
uint32_t LoadU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
uint64_t LoadU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
int32_t LoadI32(const uint8_t* p) {
  int32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
int64_t LoadI64(const uint8_t* p) {
  int64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
void StoreU32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, sizeof(v)); }
void StoreU64(uint8_t* p, uint64_t v) { std::memcpy(p, &v, sizeof(v)); }
void StoreI32(uint8_t* p, int32_t v) { std::memcpy(p, &v, sizeof(v)); }
void StoreI64(uint8_t* p, int64_t v) { std::memcpy(p, &v, sizeof(v)); }

// Bucket heads are the commit points shared with concurrently running
// processes, so they get real atomic accesses (8-aligned by layout):
// release on publish, acquire on read, pairing the flip with the record
// bytes written before it.
uint64_t AtomicLoadU64(const uint8_t* p) {
  return __atomic_load_n(reinterpret_cast<const uint64_t*>(p),
                         __ATOMIC_ACQUIRE);
}
void AtomicStoreU64(uint8_t* p, uint64_t v) {
  __atomic_store_n(reinterpret_cast<uint64_t*>(p), v, __ATOMIC_RELEASE);
}

bool Retained(const std::vector<uint64_t>& retain, uint64_t fingerprint) {
  if (retain.empty()) return true;
  return std::find(retain.begin(), retain.end(), fingerprint) != retain.end();
}

}  // namespace

PersistentFeatureStore::PersistentFeatureStore(
    std::string path, PersistentFeatureStoreOptions options)
    : path_(std::move(path)), options_(std::move(options)) {}

PersistentFeatureStore::~PersistentFeatureStore() = default;

StatusOr<std::unique_ptr<PersistentFeatureStore>> PersistentFeatureStore::Open(
    const std::string& path, PersistentFeatureStoreOptions options) {
  if (path.empty()) {
    return Status::InvalidArgument("store path must not be empty");
  }
  if (options.num_buckets == 0 || options.num_buckets > kMaxBuckets) {
    return Status::InvalidArgument("store num_buckets out of range");
  }
  auto store = std::unique_ptr<PersistentFeatureStore>(
      new PersistentFeatureStore(path, std::move(options)));
  ZOMBIE_RETURN_IF_ERROR(store->Init());
  return store;
}

Status PersistentFeatureStore::Init() {
  // Role election. A would-be writer that loses the exclusive lock
  // degrades to reader; a reader additionally tries the shared lock, but
  // proceeds lock-free when a live writer holds the exclusive one (reads
  // are safe without it — see the class comment).
  if (!options_.read_only) {
    StatusOr<FileLock> lock =
        FileLock::Acquire(path_ + ".lock", FileLockMode::kExclusive);
    if (lock.ok()) {
      write_lock_ = std::move(lock).value();
      writable_ = true;
    }
  }
  if (!writable_) {
    StatusOr<FileLock> lock =
        FileLock::Acquire(path_ + ".lock", FileLockMode::kShared);
    if (lock.ok()) write_lock_ = std::move(lock).value();
  }

  WriterMutexLock lock(&mu_);
  if (writable_) {
    uint64_t min_size = kHeaderSize + options_.num_buckets * 8;
    StatusOr<MmapFile> file = MmapFile::OpenOrCreate(path_, min_size);
    if (!file.ok()) return file.status();
    file_ = std::move(file).value();
  } else {
    StatusOr<MmapFile> file = MmapFile::OpenReadOnly(path_);
    if (!file.ok()) {
      // A reader racing the writer's first open (or pointed at a path
      // nobody has written yet) runs as an empty store rather than
      // failing the whole run.
      detached_ = true;
      return Status::OK();
    }
    file_ = std::move(file).value();
  }

  // Header validation. An all-zero magic is a freshly created (or
  // zero-truncated) file; anything else that fails validation is header
  // corruption and counts corrupt_skipped once.
  bool valid = false;
  bool fresh = false;
  if (file_.size() >= kHeaderSize) {
    uint64_t magic = LoadU64(file_.data() + kMagicOffset);
    if (magic == Magic() &&
        LoadU32(file_.data() + kVersionOffset) == kSchemaVersion) {
      uint64_t nb = LoadU64(file_.data() + kNumBucketsOffset);
      if (nb >= 1 && nb <= kMaxBuckets &&
          kHeaderSize + nb * 8 <= file_.size()) {
        num_buckets_ = nb;
        arena_offset_ = kHeaderSize + nb * 8;
        generation_ = LoadU64(file_.data() + kGenerationOffset);
        valid = true;
      }
    } else if (magic == 0) {
      fresh = true;
    }
  }

  if (!valid) {
    if (!fresh) corrupt_skipped_.fetch_add(1, std::memory_order_relaxed);
    if (!writable_) {
      // A reader cannot repair the file; run empty.
      detached_ = true;
      file_.Close();
      return Status::OK();
    }
    ZOMBIE_RETURN_IF_ERROR(ColdStartLocked());
    return Status::OK();
  }

  if (writable_) {
    generation_ += 1;
    AtomicStoreU64(file_.data() + kGenerationOffset, generation_);
  }
  RecoverLocked();
  if (writable_) {
    AtomicStoreU64(file_.data() + kArenaUsedOffset, arena_used_);
  }
  return Status::OK();
}

Status PersistentFeatureStore::ColdStartLocked() {
  num_buckets_ = options_.num_buckets;
  arena_offset_ = kHeaderSize + num_buckets_ * 8;
  // Never shrink: concurrent readers may have the old (larger) file
  // mapped, and shrinking under them would turn bounds-checked reads into
  // faults. Stale bytes past the fresh index are unreachable garbage.
  if (file_.size() < arena_offset_) {
    ZOMBIE_RETURN_IF_ERROR(file_.Grow(arena_offset_));
  }
  std::memset(file_.data(), 0, static_cast<size_t>(arena_offset_));
  StoreU64(file_.data() + kMagicOffset, Magic());
  StoreU32(file_.data() + kVersionOffset, kSchemaVersion);
  StoreU64(file_.data() + kNumBucketsOffset, num_buckets_);
  generation_ = 1;
  StoreU64(file_.data() + kGenerationOffset, generation_);
  arena_used_ = arena_offset_;
  StoreU64(file_.data() + kArenaUsedOffset, arena_used_);
  return Status::OK();
}

bool PersistentFeatureStore::ValidateRecordLocked(uint64_t offset,
                                                  uint64_t* next,
                                                  uint64_t* record_end) const {
  if (offset < arena_offset_ || offset % 8 != 0) return false;
  if (offset + 8 > file_.size()) return false;
  const uint8_t* rec = file_.data() + offset;
  uint64_t payload_len = LoadU32(rec + 4);
  if (payload_len < kPayloadFixedSize || payload_len % 8 != 0) return false;
  if (offset + RecordSize(payload_len) > file_.size()) return false;
  const uint8_t* payload = rec + 8;
  uint64_t nnz = LoadU32(payload + kPayloadNnz);
  if (PayloadLen(nnz) != payload_len) return false;
  // The CRC covers the payload *minus* the leading next link: the link is
  // a single aligned u64 the writer atomically repoints when unlinking
  // invalidated records, and re-CRCing on every unlink would make that
  // mutation non-atomic. Torn bodies are still caught; a torn link cannot
  // happen (single aligned store).
  if (LoadU32(rec) != Crc32(payload + 8, payload_len - 8)) return false;
  // Links only ever point at older records, which sit at lower offsets
  // (appends go past every reachable record; unlinking repoints to an even
  // older one). A link that does not point strictly backwards is corrupt,
  // and rejecting it makes every chain walk terminate: no cycle survives.
  *next = LoadU64(payload + kPayloadNext);
  if (*next >= offset) return false;
  *record_end = offset + RecordSize(payload_len);
  return true;
}

void PersistentFeatureStore::RecoverLocked() {
  const bool invalidate = writable_ && !options_.retain_fingerprints.empty();
  uint64_t max_end = arena_offset_;
  for (uint64_t b = 0; b < num_buckets_; ++b) {
    // `link` is the location holding the offset of the record under
    // inspection: the bucket slot first, then each record's next field.
    uint64_t link = kHeaderSize + b * 8;
    uint64_t off = AtomicLoadU64(file_.data() + link);
    while (off != 0) {
      uint64_t next = 0;
      uint64_t end = 0;
      if (!ValidateRecordLocked(off, &next, &end)) {
        // Torn or corrupt: everything behind it is unreachable (its next
        // pointer cannot be trusted), so the chain is truncated here.
        corrupt_skipped_.fetch_add(1, std::memory_order_relaxed);
        if (writable_) AtomicStoreU64(file_.data() + link, 0);
        break;
      }
      uint64_t fp = LoadU64(file_.data() + off + 8 + kPayloadFingerprint);
      if (invalidate && !Retained(options_.retain_fingerprints, fp)) {
        invalidated_.fetch_add(1, std::memory_order_relaxed);
        AtomicStoreU64(file_.data() + link, next);  // unlink, keep walking
        off = next;
        continue;
      }
      recovered_.fetch_add(1, std::memory_order_relaxed);
      entries_.fetch_add(1, std::memory_order_relaxed);
      max_end = std::max(max_end, end);
      link = off + 8 + kPayloadNext;
      off = next;
    }
  }
  uint64_t header_used = LoadU64(file_.data() + kArenaUsedOffset);
  if (header_used < arena_offset_ || header_used > file_.size()) {
    header_used = arena_offset_;
  }
  arena_used_ = std::max(header_used, max_end);
}

uint64_t PersistentFeatureStore::FindLocked(uint64_t pipeline_fingerprint,
                                            uint32_t doc_id) const {
  uint64_t bucket =
      HashCombine(pipeline_fingerprint, doc_id) % num_buckets_;
  uint64_t off = AtomicLoadU64(file_.data() + kHeaderSize + bucket * 8);
  while (off != 0) {
    uint64_t next = 0;
    uint64_t end = 0;
    // Full validation per step: a reader's chain can reach records a live
    // writer published after this process opened (fine — they are
    // complete) or, past the mapped range, records it cannot see yet
    // (treated as chain end, not corruption).
    if (!ValidateRecordLocked(off, &next, &end)) return 0;
    const uint8_t* payload = file_.data() + off + 8;
    if (LoadU64(payload + kPayloadFingerprint) == pipeline_fingerprint &&
        LoadU32(payload + kPayloadDocId) == doc_id) {
      return off;
    }
    off = next;
  }
  return 0;
}

std::optional<FeatureCache::Entry> PersistentFeatureStore::Lookup(
    uint64_t pipeline_fingerprint, uint32_t doc_id) {
  ReaderMutexLock lock(&mu_);
  if (detached_) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  uint64_t off = FindLocked(pipeline_fingerprint, doc_id);
  if (off == 0) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  const uint8_t* payload = file_.data() + off + 8;
  uint64_t nnz = LoadU32(payload + kPayloadNnz);
  uint64_t idx_bytes = nnz * 4;
  if (nnz % 2 != 0) idx_bytes += 4;
  // The index and value columns decode as two bulk copies.
  const uint8_t* indices = payload + kPayloadIndices;
  const uint8_t* values = indices + idx_bytes;
  FeatureCache::Entry entry;
  if (!entry.features.AssignSorted(indices, values, nnz)) {
    // A record that passed its CRC but is not a valid sparse vector can
    // only come from a faulty writer; serve it as a miss (the caller
    // re-extracts) rather than trusting it.
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  entry.label = LoadI32(payload + kPayloadLabel);
  entry.cost_micros = LoadI64(payload + kPayloadCost);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return entry;
}

bool PersistentFeatureStore::Append(uint64_t pipeline_fingerprint,
                                    uint32_t doc_id,
                                    const FeatureCache::Entry& entry) {
  if (!writable_) return false;
  WriterMutexLock lock(&mu_);
  if (detached_) return false;
  // First writer wins: records are immutable and values for a key are
  // identical by the determinism contract, so a duplicate is dropped.
  if (FindLocked(pipeline_fingerprint, doc_id) != 0) return false;

  uint64_t nnz = entry.features.num_nonzero();
  uint64_t payload_len = PayloadLen(nnz);
  uint64_t total = RecordSize(payload_len);
  if (arena_used_ + total > file_.size()) {
    uint64_t want = std::max(arena_used_ + total,
                             std::max(file_.size() * 2, file_.size() +
                                                            kGrowChunk));
    Status grown = file_.Grow(want);
    if (!grown.ok()) {
      ZLOG(Warning) << "feature store append failed to grow " << path_
                    << ": " << grown.ToString();
      detached_ = true;  // mapping may be gone; stop using it
      return false;
    }
  }

  uint64_t bucket = HashCombine(pipeline_fingerprint, doc_id) % num_buckets_;
  uint8_t* slot = file_.data() + kHeaderSize + bucket * 8;
  uint64_t old_head = AtomicLoadU64(slot);
  uint64_t off = arena_used_;
  uint8_t* rec = file_.data() + off;
  uint8_t* payload = rec + 8;
  std::memset(payload, 0, static_cast<size_t>(payload_len));
  StoreU64(payload + kPayloadNext, old_head);
  StoreU64(payload + kPayloadFingerprint, pipeline_fingerprint);
  StoreU32(payload + kPayloadDocId, doc_id);
  StoreI32(payload + kPayloadLabel, entry.label);
  StoreI64(payload + kPayloadCost, entry.cost_micros);
  StoreU32(payload + kPayloadNnz, static_cast<uint32_t>(nnz));
  uint64_t idx_bytes = nnz * 4;
  if (nnz % 2 != 0) idx_bytes += 4;
  uint8_t* indices = payload + kPayloadIndices;
  uint8_t* values = indices + idx_bytes;
  if (nnz > 0) {  // an empty vector's data() may be null
    std::memcpy(indices, entry.features.indices().data(),
                static_cast<size_t>(nnz) * sizeof(uint32_t));
    std::memcpy(values, entry.features.values().data(),
                static_cast<size_t>(nnz) * sizeof(double));
  }
  StoreU32(rec + 4, static_cast<uint32_t>(payload_len));
  StoreU32(rec, Crc32(payload + 8, payload_len - 8));
  // Commit point: the record is fully written, now publish it. A crash
  // before this store leaves the bytes unreachable (reclaimed by the next
  // writer's recovery); a crash after it leaves a committed record.
  AtomicStoreU64(slot, off);
  arena_used_ += total;
  AtomicStoreU64(file_.data() + kArenaUsedOffset, arena_used_);
  appends_.fetch_add(1, std::memory_order_relaxed);
  entries_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

PersistentFeatureStoreStats PersistentFeatureStore::Stats() const {
  PersistentFeatureStoreStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.appends = appends_.load(std::memory_order_relaxed);
  s.recovered = recovered_.load(std::memory_order_relaxed);
  s.invalidated = invalidated_.load(std::memory_order_relaxed);
  s.corrupt_skipped = corrupt_skipped_.load(std::memory_order_relaxed);
  s.entries = entries_.load(std::memory_order_relaxed);
  s.writable = writable_;
  return s;
}

void PersistentFeatureStore::ExportMetrics(MetricsRegistry* metrics) const {
  if (metrics == nullptr) return;
  PersistentFeatureStoreStats s = Stats();
  metrics->GetGauge("store.hits")->Set(static_cast<double>(s.hits));
  metrics->GetGauge("store.misses")->Set(static_cast<double>(s.misses));
  metrics->GetGauge("store.appends")->Set(static_cast<double>(s.appends));
  metrics->GetGauge("store.recovered")->Set(static_cast<double>(s.recovered));
  metrics->GetGauge("store.invalidated")
      ->Set(static_cast<double>(s.invalidated));
  metrics->GetGauge("store.corrupt_skipped")
      ->Set(static_cast<double>(s.corrupt_skipped));
  metrics->GetGauge("store.entries")->Set(static_cast<double>(s.entries));
  metrics->GetGauge("store.hit_rate")->Set(s.hit_rate());
}

}  // namespace zombie
