#ifndef ZOMBIE_INDEX_GROUPED_CORPUS_H_
#define ZOMBIE_INDEX_GROUPED_CORPUS_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "data/corpus.h"
#include "index/grouper.h"

namespace zombie {

/// The online view of an indexed corpus: per-group cursors over (shuffled)
/// item lists with a global processed set, so that overlapping groups never
/// hand the engine the same item twice.
///
/// The engine asks a bandit policy for a group, then asks this class for
/// the next unprocessed item of that group. Holdout items are pre-marked
/// as processed so evaluation data never leaks into training.
///
/// Storage is an appendable shard arena (the CSR/arena idiom of the sparse
/// Dataset): every group is a chain of fixed-capacity shards carved out of
/// one flat doc-id arena, so growing a group mid-run — streaming ingestion
/// — is an O(1) append that never reallocates per-group vectors or
/// invalidates another group's layout. Iteration order is the shard-chain
/// order, which is exactly the order items were inserted; for the frozen
/// base grouping that is the same (optionally shuffled) order the
/// pre-arena implementation produced, byte for byte.
class GroupedCorpus {
 public:
  /// Documents per shard. Also the natural granularity for split
  /// thresholds: an incremental grouper that splits a group at a small
  /// multiple of this keeps chains short.
  static constexpr size_t kShardCapacity = 64;

  /// A borrowed, contiguous view of one shard's doc ids (test/debug
  /// surface). Invalidated by any append to the GroupedCorpus.
  struct ShardView {
    const uint32_t* docs = nullptr;
    size_t size = 0;
  };

  /// Takes a non-owning pointer to the corpus (must outlive this object)
  /// and the grouping. Item order within each group is shuffled with
  /// `seed` so corpus construction order carries no signal; pass
  /// shuffle = false to preserve group order (the sequential-scan
  /// baseline).
  GroupedCorpus(const Corpus* corpus, GroupingResult grouping, uint64_t seed,
                bool shuffle = true);

  /// Streaming variant: the grouping covers only the offline base
  /// [0, base_size) and is validated against that prefix; documents
  /// [base_size, corpus.size()) enter later via AppendDocument/AddGroup.
  /// With base_size == corpus.size() this is exactly the offline
  /// constructor.
  GroupedCorpus(const Corpus* corpus, GroupingResult grouping, uint64_t seed,
                bool shuffle, size_t base_size);

  size_t num_groups() const { return groups_.size(); }
  /// Total items ever inserted into group g (base + appended; items shared
  /// with other groups count here regardless of who consumed them).
  size_t group_size(size_t g) const;

  /// Pops the next unprocessed document index from group g, marking it
  /// processed globally. Returns nullopt when the group is exhausted
  /// (possibly because overlapping groups consumed its items). An
  /// exhausted group is not dead under streaming: a later append makes it
  /// produce again.
  std::optional<uint32_t> NextFromGroup(size_t g);

  /// True when group g has no unprocessed items left. May do cursor work
  /// (skipping already-processed entries) but never consumes an item.
  bool GroupExhausted(size_t g);

  /// True when no group can produce another item.
  bool AllExhausted();

  /// Marks a document processed without attributing it to a group (e.g.
  /// holdout sampling). Idempotent.
  void MarkProcessed(uint32_t doc_index);

  bool IsProcessed(uint32_t doc_index) const;

  /// Number of distinct documents marked processed so far.
  size_t num_processed() const { return num_processed_; }

  /// Restores the all-unprocessed state (cursors rewound; insertion order
  /// — including any streamed appends — preserved so repeated runs over
  /// one index are comparable).
  void Reset();

  // --- Streaming ingestion (engine-thread only, like every mutator). ----

  /// Appends an arrived document to each listed group, in order. Groups
  /// must exist; the document must be a valid corpus index. The same
  /// document may live in several groups (token-style overlap and k-means
  /// splits both rely on this) — the global processed set guarantees it
  /// trains at most once.
  void AppendDocument(uint32_t doc_index, const std::vector<size_t>& groups);

  /// Opens a new group (a new bandit arm) seeded with `members` in the
  /// given order (possibly empty); returns its group index. Members may
  /// duplicate documents already present in other groups (a split copies
  /// rather than moves — append-only keeps every existing cursor valid,
  /// and the processed set already dedups consumption).
  size_t AddGroup(const std::vector<uint32_t>& members);

  /// Number of shards in group g's chain (0 for an empty group).
  size_t num_shards(size_t g) const;

  /// Borrowed view of the `ordinal`-th shard of group g's chain.
  ShardView shard(size_t g, size_t ordinal) const;

  const Corpus& corpus() const { return *corpus_; }
  /// The frozen base grouping (streamed appends are not reflected here).
  const GroupingResult& grouping() const { return grouping_; }
  /// Size of the offline base prefix this index was built over.
  size_t base_size() const { return base_size_; }

 private:
  struct GroupIndex {
    int32_t head = -1;  // first shard id, -1 when empty
    int32_t tail = -1;  // last shard id (append target)
    size_t size = 0;    // total items inserted
  };
  struct Cursor {
    int32_t shard = -1;  // -1: (re)start from the group head
    uint32_t offset = 0;
  };

  int32_t AllocateShard();
  void AppendToGroup(size_t g, uint32_t doc_index);

  const Corpus* corpus_;
  GroupingResult grouping_;
  size_t base_size_;
  /// Flat shard arena: shard s owns slots [s*kShardCapacity,
  /// (s+1)*kShardCapacity); shard_len_[s] of them are filled.
  std::vector<uint32_t> arena_;
  std::vector<uint32_t> shard_len_;
  std::vector<int32_t> shard_next_;
  std::vector<GroupIndex> groups_;
  std::vector<Cursor> cursors_;
  std::vector<uint8_t> processed_;
  size_t num_processed_ = 0;
};

}  // namespace zombie

#endif  // ZOMBIE_INDEX_GROUPED_CORPUS_H_
