#include "index/grouped_corpus.h"

#include <gtest/gtest.h>

#include <set>

#include "data/webcat_generator.h"
#include "index/random_grouper.h"
#include "index/token_grouper.h"

namespace zombie {
namespace {

Corpus TestCorpus(size_t n = 200) {
  WebCatOptions opts;
  opts.num_documents = n;
  return GenerateWebCatCorpus(opts);
}

GroupingResult TwoGroups(size_t n) {
  GroupingResult g;
  g.method = "two";
  g.groups.resize(2);
  for (size_t i = 0; i < n; ++i) {
    g.groups[i % 2].push_back(static_cast<uint32_t>(i));
  }
  return g;
}

TEST(GroupedCorpusTest, DrainsEveryItemExactlyOnce) {
  Corpus corpus = TestCorpus(100);
  GroupedCorpus gc(&corpus, TwoGroups(100), 1);
  std::set<uint32_t> seen;
  while (!gc.AllExhausted()) {
    for (size_t g = 0; g < gc.num_groups(); ++g) {
      auto idx = gc.NextFromGroup(g);
      if (idx.has_value()) {
        EXPECT_TRUE(seen.insert(*idx).second) << "duplicate " << *idx;
      }
    }
  }
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(gc.num_processed(), 100u);
}

TEST(GroupedCorpusTest, OverlappingGroupsNeverRepeatItems) {
  Corpus corpus = TestCorpus(50);
  GroupingResult g;
  g.method = "overlap";
  g.groups.resize(2);
  for (uint32_t i = 0; i < 50; ++i) {
    g.groups[0].push_back(i);
    if (i % 2 == 0) g.groups[1].push_back(i);  // subset overlap
  }
  GroupedCorpus gc(&corpus, std::move(g), 2);
  std::set<uint32_t> seen;
  // Drain group 1 (the subset) first.
  while (auto idx = gc.NextFromGroup(1)) seen.insert(*idx);
  EXPECT_EQ(seen.size(), 25u);
  // Group 0 then yields only the other half.
  size_t rest = 0;
  while (auto idx = gc.NextFromGroup(0)) {
    EXPECT_TRUE(seen.insert(*idx).second);
    ++rest;
  }
  EXPECT_EQ(rest, 25u);
  EXPECT_TRUE(gc.AllExhausted());
}

TEST(GroupedCorpusTest, ExhaustedGroupReturnsNullopt) {
  Corpus corpus = TestCorpus(10);
  GroupingResult g;
  g.groups = {{0, 1}, {2, 3, 4, 5, 6, 7, 8, 9}};
  GroupedCorpus gc(&corpus, std::move(g), 3);
  EXPECT_TRUE(gc.NextFromGroup(0).has_value());
  EXPECT_TRUE(gc.NextFromGroup(0).has_value());
  EXPECT_FALSE(gc.NextFromGroup(0).has_value());
  EXPECT_TRUE(gc.GroupExhausted(0));
  EXPECT_FALSE(gc.GroupExhausted(1));
  EXPECT_FALSE(gc.AllExhausted());
}

TEST(GroupedCorpusTest, MarkProcessedExcludesFromSelection) {
  Corpus corpus = TestCorpus(10);
  GroupingResult g;
  g.groups = {{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}};
  GroupedCorpus gc(&corpus, std::move(g), 4);
  for (uint32_t i = 0; i < 5; ++i) gc.MarkProcessed(i);
  EXPECT_EQ(gc.num_processed(), 5u);
  std::set<uint32_t> seen;
  while (auto idx = gc.NextFromGroup(0)) seen.insert(*idx);
  EXPECT_EQ(seen.size(), 5u);
  for (uint32_t i : seen) EXPECT_GE(i, 5u);
}

TEST(GroupedCorpusTest, MarkProcessedIdempotent) {
  Corpus corpus = TestCorpus(10);
  GroupedCorpus gc(&corpus, TwoGroups(10), 5);
  gc.MarkProcessed(3);
  gc.MarkProcessed(3);
  EXPECT_EQ(gc.num_processed(), 1u);
  EXPECT_TRUE(gc.IsProcessed(3));
  EXPECT_FALSE(gc.IsProcessed(4));
}

TEST(GroupedCorpusTest, ShuffleChangesOrderButNotContents) {
  Corpus corpus = TestCorpus(60);
  GroupingResult g = TwoGroups(60);
  GroupedCorpus shuffled(&corpus, g, 6, /*shuffle=*/true);
  GroupedCorpus ordered(&corpus, g, 6, /*shuffle=*/false);
  std::vector<uint32_t> s_order;
  std::vector<uint32_t> o_order;
  while (auto idx = shuffled.NextFromGroup(0)) s_order.push_back(*idx);
  while (auto idx = ordered.NextFromGroup(0)) o_order.push_back(*idx);
  EXPECT_NE(s_order, o_order);
  std::sort(s_order.begin(), s_order.end());
  EXPECT_EQ(s_order, o_order);  // ordered group 0 is already sorted (evens)
}

TEST(GroupedCorpusTest, ResetRestoresAllItems) {
  Corpus corpus = TestCorpus(20);
  GroupedCorpus gc(&corpus, TwoGroups(20), 7);
  while (auto idx = gc.NextFromGroup(0)) {
  }
  gc.MarkProcessed(1);
  gc.Reset();
  EXPECT_EQ(gc.num_processed(), 0u);
  EXPECT_FALSE(gc.GroupExhausted(0));
  size_t count = 0;
  while (auto idx = gc.NextFromGroup(0)) ++count;
  EXPECT_EQ(count, 10u);
}

TEST(GroupedCorpusTest, GroupSizeReportsOriginalSizes) {
  Corpus corpus = TestCorpus(30);
  GroupedCorpus gc(&corpus, TwoGroups(30), 8);
  EXPECT_EQ(gc.group_size(0), 15u);
  EXPECT_EQ(gc.group_size(1), 15u);
}

// --- Streaming: appends, new groups, shard-arena views. -------------------

TEST(GroupedCorpusStreamTest, BaseSizeEqualCorpusMatchesOfflineCtor) {
  Corpus corpus = TestCorpus(80);
  GroupingResult g = TwoGroups(80);
  GroupedCorpus offline(&corpus, g, 21, /*shuffle=*/true);
  GroupedCorpus streaming(&corpus, g, 21, /*shuffle=*/true,
                          /*base_size=*/80);
  EXPECT_EQ(streaming.base_size(), 80u);
  for (size_t grp = 0; grp < 2; ++grp) {
    while (true) {
      auto a = offline.NextFromGroup(grp);
      auto b = streaming.NextFromGroup(grp);
      ASSERT_EQ(a.has_value(), b.has_value());
      if (!a.has_value()) break;
      EXPECT_EQ(*a, *b);
    }
  }
}

TEST(GroupedCorpusStreamTest, AppendRevivesExhaustedGroup) {
  Corpus corpus = TestCorpus(20);
  GroupingResult g;
  g.groups = {{0, 1}, {2, 3, 4, 5, 6, 7, 8, 9}};  // base = docs [0, 10)
  GroupedCorpus gc(&corpus, std::move(g), 12, /*shuffle=*/false,
                   /*base_size=*/10);
  while (gc.NextFromGroup(0).has_value()) {
  }
  EXPECT_TRUE(gc.GroupExhausted(0));
  gc.AppendDocument(10, {0});
  EXPECT_FALSE(gc.GroupExhausted(0));
  auto idx = gc.NextFromGroup(0);
  ASSERT_TRUE(idx.has_value());
  EXPECT_EQ(*idx, 10u);
  EXPECT_TRUE(gc.GroupExhausted(0));
  EXPECT_EQ(gc.group_size(0), 3u);
}

TEST(GroupedCorpusStreamTest, AppendToMultipleGroupsTrainsOnce) {
  Corpus corpus = TestCorpus(12);
  GroupingResult g;
  g.groups = {{0, 1, 2, 3}, {4, 5, 6, 7}};
  GroupedCorpus gc(&corpus, std::move(g), 13, /*shuffle=*/false,
                   /*base_size=*/8);
  gc.AppendDocument(8, {0, 1});  // overlapping append
  std::set<uint32_t> seen;
  for (size_t grp = 0; grp < 2; ++grp) {
    while (auto idx = gc.NextFromGroup(grp)) {
      EXPECT_TRUE(seen.insert(*idx).second) << "doc " << *idx << " twice";
    }
  }
  EXPECT_EQ(seen.size(), 9u);  // 8 base + 1 appended, not 10
}

TEST(GroupedCorpusStreamTest, AddGroupOpensNewArmWithMembers) {
  Corpus corpus = TestCorpus(20);
  GroupingResult g;
  g.groups = {{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}};
  GroupedCorpus gc(&corpus, std::move(g), 14, /*shuffle=*/false,
                   /*base_size=*/10);
  // Split-style: members copied from the existing group plus an arrival.
  size_t ng = gc.AddGroup({7, 8, 9});
  EXPECT_EQ(ng, 1u);
  EXPECT_EQ(gc.num_groups(), 2u);
  EXPECT_EQ(gc.group_size(1), 3u);
  // The copies dedup against the source group through the processed set.
  std::vector<uint32_t> from_new;
  while (auto idx = gc.NextFromGroup(1)) from_new.push_back(*idx);
  EXPECT_EQ(from_new, (std::vector<uint32_t>{7, 8, 9}));
  size_t rest = 0;
  while (auto idx = gc.NextFromGroup(0)) {
    EXPECT_LT(*idx, 7u);
    ++rest;
  }
  EXPECT_EQ(rest, 7u);
}

TEST(GroupedCorpusStreamTest, AddEmptyGroupIsExhaustedUntilAppend) {
  Corpus corpus = TestCorpus(10);
  GroupingResult g;
  g.groups = {{0, 1, 2, 3, 4}};
  GroupedCorpus gc(&corpus, std::move(g), 15, /*shuffle=*/false,
                   /*base_size=*/5);
  size_t ng = gc.AddGroup({});  // brand-new domain: an arm with no history
  EXPECT_TRUE(gc.GroupExhausted(ng));
  EXPECT_EQ(gc.group_size(ng), 0u);
  EXPECT_EQ(gc.num_shards(ng), 0u);
  gc.AppendDocument(5, {ng});
  EXPECT_FALSE(gc.GroupExhausted(ng));
  EXPECT_EQ(*gc.NextFromGroup(ng), 5u);
}

TEST(GroupedCorpusStreamTest, ShardChainsGrowAndViewsMatchInsertionOrder) {
  const size_t cap = GroupedCorpus::kShardCapacity;
  Corpus corpus = TestCorpus(3 * cap);
  GroupingResult g;
  g.groups = {{0}};
  GroupedCorpus gc(&corpus, std::move(g), 16, /*shuffle=*/false,
                   /*base_size=*/1);
  // One base doc + (2*cap + 3) appends: chain of 3 shards, tail partial.
  std::vector<uint32_t> inserted = {0};
  for (uint32_t d = 1; d < static_cast<uint32_t>(2 * cap + 4); ++d) {
    gc.AppendDocument(d, {0});
    inserted.push_back(d);
  }
  EXPECT_EQ(gc.group_size(0), inserted.size());
  ASSERT_EQ(gc.num_shards(0), 3u);
  std::vector<uint32_t> from_shards;
  for (size_t s = 0; s < gc.num_shards(0); ++s) {
    GroupedCorpus::ShardView view = gc.shard(0, s);
    ASSERT_NE(view.docs, nullptr);
    if (s + 1 < gc.num_shards(0)) {
      EXPECT_EQ(view.size, cap) << "interior shards are full";
    }
    from_shards.insert(from_shards.end(), view.docs, view.docs + view.size);
  }
  EXPECT_EQ(from_shards, inserted);
  // Pop order is the shard-chain order.
  std::vector<uint32_t> popped;
  while (auto idx = gc.NextFromGroup(0)) popped.push_back(*idx);
  EXPECT_EQ(popped, inserted);
}

TEST(GroupedCorpusStreamTest, CursorResumesOnPartiallyFilledTailShard) {
  const size_t cap = GroupedCorpus::kShardCapacity;
  Corpus corpus = TestCorpus(2 * cap);
  GroupingResult g;
  g.groups = {{0, 1, 2}};
  GroupedCorpus gc(&corpus, std::move(g), 17, /*shuffle=*/false,
                   /*base_size=*/3);
  // Drain to the end of the (partial) tail shard, then append into it: the
  // cursor must pick up the new slot, not restart or skip.
  while (gc.NextFromGroup(0).has_value()) {
  }
  gc.AppendDocument(3, {0});
  EXPECT_EQ(*gc.NextFromGroup(0), 3u);
  // Fill past the shard boundary and drain again: order preserved.
  std::vector<uint32_t> expect;
  for (uint32_t d = 4; d < static_cast<uint32_t>(cap + 8); ++d) {
    gc.AppendDocument(d, {0});
    expect.push_back(d);
  }
  std::vector<uint32_t> popped;
  while (auto idx = gc.NextFromGroup(0)) popped.push_back(*idx);
  EXPECT_EQ(popped, expect);
  EXPECT_GE(gc.num_shards(0), 2u);
}

TEST(GroupedCorpusStreamTest, ResetPreservesAppendedOrder) {
  Corpus corpus = TestCorpus(20);
  GroupingResult g;
  g.groups = {{0, 1, 2, 3, 4, 5, 6, 7}};
  GroupedCorpus gc(&corpus, std::move(g), 18, /*shuffle=*/true,
                   /*base_size=*/8);
  size_t ng = gc.AddGroup({2, 5});
  gc.AppendDocument(8, {0});
  gc.AppendDocument(9, {ng});
  auto drain = [&gc]() {
    std::vector<uint32_t> order;
    for (size_t grp = 0; grp < gc.num_groups(); ++grp) {
      while (auto idx = gc.NextFromGroup(grp)) order.push_back(*idx);
    }
    return order;
  };
  std::vector<uint32_t> first = drain();
  gc.Reset();
  EXPECT_EQ(gc.num_processed(), 0u);
  std::vector<uint32_t> second = drain();
  EXPECT_EQ(first, second)
      << "Reset must preserve insertion order, including streamed appends";
}

TEST(GroupedCorpusDeathTest, InvalidGroupingAborts) {
  Corpus corpus = TestCorpus(5);
  GroupingResult g;
  g.groups = {{0, 1}};  // docs 2..4 uncovered
  EXPECT_DEATH(GroupedCorpus(&corpus, std::move(g), 1), "not covered");
}

}  // namespace
}  // namespace zombie
