#include "index/grouped_corpus.h"

#include "util/logging.h"
#include "util/random.h"

namespace zombie {

GroupedCorpus::GroupedCorpus(const Corpus* corpus, GroupingResult grouping,
                             uint64_t seed, bool shuffle)
    : GroupedCorpus(corpus, std::move(grouping), seed, shuffle,
                    corpus != nullptr ? corpus->size() : 0) {}

GroupedCorpus::GroupedCorpus(const Corpus* corpus, GroupingResult grouping,
                             uint64_t seed, bool shuffle, size_t base_size)
    : corpus_(corpus),
      grouping_(std::move(grouping)),
      base_size_(base_size) {
  ZCHECK(corpus_ != nullptr);
  ZCHECK_LE(base_size_, corpus_->size());
  ZCHECK_OK(grouping_.Validate(base_size_));
  // The base layout draws the identical Rng sequence the pre-arena
  // implementation drew (one Shuffle per group, in group order), then
  // inserts each group's items in that order — so the pop order of the
  // frozen base is byte-identical to the flat-vector era.
  Rng rng(seed);
  groups_.reserve(grouping_.groups.size());
  cursors_.reserve(grouping_.groups.size());
  std::vector<uint32_t> scratch;
  for (const std::vector<uint32_t>& members : grouping_.groups) {
    scratch = members;
    if (shuffle) rng.Shuffle(&scratch);
    AddGroup(scratch);
  }
  processed_.assign(corpus_->size(), 0);
}

int32_t GroupedCorpus::AllocateShard() {
  int32_t id = static_cast<int32_t>(shard_len_.size());
  arena_.resize(arena_.size() + kShardCapacity);
  shard_len_.push_back(0);
  shard_next_.push_back(-1);
  return id;
}

void GroupedCorpus::AppendToGroup(size_t g, uint32_t doc_index) {
  GroupIndex& group = groups_[g];
  if (group.tail < 0) {
    group.head = group.tail = AllocateShard();
  } else if (shard_len_[static_cast<size_t>(group.tail)] == kShardCapacity) {
    int32_t s = AllocateShard();
    shard_next_[static_cast<size_t>(group.tail)] = s;
    group.tail = s;
  }
  size_t tail = static_cast<size_t>(group.tail);
  arena_[tail * kShardCapacity + shard_len_[tail]] = doc_index;
  ++shard_len_[tail];
  ++group.size;
}

size_t GroupedCorpus::group_size(size_t g) const {
  ZCHECK_LT(g, groups_.size());
  return groups_[g].size;
}

std::optional<uint32_t> GroupedCorpus::NextFromGroup(size_t g) {
  ZCHECK_LT(g, groups_.size());
  Cursor& cur = cursors_[g];
  if (cur.shard < 0) {
    cur.shard = groups_[g].head;  // may still be -1 (empty group)
    cur.offset = 0;
  }
  while (cur.shard >= 0) {
    size_t s = static_cast<size_t>(cur.shard);
    while (cur.offset < shard_len_[s]) {
      uint32_t doc = arena_[s * kShardCapacity + cur.offset];
      ++cur.offset;
      if (!processed_[doc]) {
        processed_[doc] = 1;
        ++num_processed_;
        return doc;
      }
    }
    // A shard is only left behind once full: a partially filled tail may
    // still grow, so the cursor parks there until new items (or a new
    // chained shard) appear.
    if (shard_len_[s] < kShardCapacity || shard_next_[s] < 0) break;
    cur.shard = shard_next_[s];
    cur.offset = 0;
  }
  return std::nullopt;
}

bool GroupedCorpus::GroupExhausted(size_t g) {
  ZCHECK_LT(g, groups_.size());
  Cursor& cur = cursors_[g];
  if (cur.shard < 0) {
    cur.shard = groups_[g].head;
    cur.offset = 0;
  }
  while (cur.shard >= 0) {
    size_t s = static_cast<size_t>(cur.shard);
    // Skip over consumed items without taking one.
    while (cur.offset < shard_len_[s] &&
           processed_[arena_[s * kShardCapacity + cur.offset]]) {
      ++cur.offset;
    }
    if (cur.offset < shard_len_[s]) return false;
    if (shard_len_[s] < kShardCapacity || shard_next_[s] < 0) return true;
    cur.shard = shard_next_[s];
    cur.offset = 0;
  }
  return true;
}

bool GroupedCorpus::AllExhausted() {
  for (size_t g = 0; g < groups_.size(); ++g) {
    if (!GroupExhausted(g)) return false;
  }
  return true;
}

void GroupedCorpus::MarkProcessed(uint32_t doc_index) {
  ZCHECK_LT(doc_index, processed_.size());
  if (!processed_[doc_index]) {
    processed_[doc_index] = 1;
    ++num_processed_;
  }
}

bool GroupedCorpus::IsProcessed(uint32_t doc_index) const {
  ZCHECK_LT(doc_index, processed_.size());
  return processed_[doc_index] != 0;
}

void GroupedCorpus::Reset() {
  for (size_t g = 0; g < groups_.size(); ++g) {
    cursors_[g].shard = groups_[g].head;
    cursors_[g].offset = 0;
  }
  processed_.assign(corpus_->size(), 0);
  num_processed_ = 0;
}

void GroupedCorpus::AppendDocument(uint32_t doc_index,
                                   const std::vector<size_t>& groups) {
  ZCHECK_LT(doc_index, corpus_->size());
  ZCHECK_LT(doc_index, processed_.size());
  for (size_t g : groups) {
    ZCHECK_LT(g, groups_.size());
    AppendToGroup(g, doc_index);
  }
}

size_t GroupedCorpus::AddGroup(const std::vector<uint32_t>& members) {
  size_t g = groups_.size();
  groups_.emplace_back();
  cursors_.emplace_back();
  for (uint32_t doc : members) {
    ZCHECK_LT(doc, corpus_->size());
    AppendToGroup(g, doc);
  }
  return g;
}

size_t GroupedCorpus::num_shards(size_t g) const {
  ZCHECK_LT(g, groups_.size());
  size_t n = 0;
  for (int32_t s = groups_[g].head; s >= 0;
       s = shard_next_[static_cast<size_t>(s)]) {
    ++n;
  }
  return n;
}

GroupedCorpus::ShardView GroupedCorpus::shard(size_t g, size_t ordinal) const {
  ZCHECK_LT(g, groups_.size());
  int32_t s = groups_[g].head;
  for (size_t i = 0; i < ordinal && s >= 0; ++i) {
    s = shard_next_[static_cast<size_t>(s)];
  }
  ZCHECK_GE(s, 0) << "shard ordinal out of range";
  ShardView view;
  view.docs = arena_.data() + static_cast<size_t>(s) * kShardCapacity;
  view.size = shard_len_[static_cast<size_t>(s)];
  return view;
}

}  // namespace zombie
