#include "text/hashing_vectorizer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "text/term_counts.h"
#include "util/random.h"

namespace zombie {
namespace {

bool IsSortedUnique(const TermCounts& counts) {
  for (size_t i = 1; i < counts.size(); ++i) {
    if (counts[i - 1].first >= counts[i].first) return false;
  }
  return true;
}

// Hashes token ids the way the bag-of-words extractor does.
TermCounts CountIds(const HashingVectorizer& v,
                    const std::vector<uint32_t>& ids) {
  TermCounts out;
  v.CountHashes(
      ids.size(), [&](size_t i) -> uint64_t { return ids[i]; }, &out);
  return out;
}

// Where a single token id lands.
uint32_t IndexOf(const HashingVectorizer& v, uint32_t id) {
  TermCounts c = CountIds(v, {id});
  EXPECT_EQ(c.size(), 1u);
  return c.empty() ? 0 : c[0].first;
}

TEST(HashingVectorizerTest, IndicesWithinDimension) {
  for (uint32_t dim : {16u, 7u}) {
    HashingVectorizer v(dim);
    TermCounts c = CountIds(v, {1, 2, 3, 4, 5, 6, 70000, 0xFFFFFFFFu});
    for (const auto& [idx, value] : c) EXPECT_LT(idx, dim);
    EXPECT_TRUE(IsSortedUnique(c));
  }
}

TEST(HashingVectorizerTest, RepeatedTokensSum) {
  HashingVectorizer v(1024);
  TermCounts c = CountIds(v, {42, 42, 42});
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0].second, 3.0);

  TermCounts mixed = CountIds(v, {1, 2, 3, 1, 2, 1});
  double total = 0.0;
  for (const auto& [idx, value] : mixed) total += value;
  EXPECT_EQ(total, 6.0);
}

TEST(HashingVectorizerTest, DeterministicAcrossInstances) {
  HashingVectorizer a(256, /*salt=*/5);
  HashingVectorizer b(256, /*salt=*/5);
  EXPECT_EQ(CountIds(a, {10, 11, 12, 10}), CountIds(b, {10, 11, 12, 10}));
}

TEST(HashingVectorizerTest, SaltChangesMapping) {
  HashingVectorizer a(1 << 20, /*salt=*/0);
  HashingVectorizer b(1 << 20, /*salt=*/1);
  EXPECT_EQ(a.salt(), 0u);
  EXPECT_EQ(b.salt(), 1u);
  EXPECT_NE(IndexOf(a, 12345), IndexOf(b, 12345));
}

TEST(HashingVectorizerTest, MaskAndModuloReductionsAgree) {
  // 1024 takes the power-of-two mask path, 1000 the modulo path; both
  // must land each token exactly where a plain modulo of its salted hash
  // puts it.
  for (uint32_t dim : {1024u, 1000u}) {
    HashingVectorizer v(dim, /*salt=*/42);
    EXPECT_EQ(v.dimension(), dim);
    for (uint32_t id : {0u, 1u, 77u, 4096u, 123456789u, 0xFFFFFFFFu}) {
      EXPECT_EQ(IndexOf(v, id),
                static_cast<uint32_t>(HashCombine(id, 42) % dim))
          << "dim=" << dim << " id=" << id;
    }
  }
}

TEST(HashingVectorizerTest, AppendsAfterExistingEntries) {
  HashingVectorizer v(64);
  TermCounts out = {{63, 9.0}};
  v.CountHashes(
      2, [](size_t i) -> uint64_t { return i; }, &out);
  ASSERT_GE(out.size(), 2u);
  EXPECT_EQ(out[0], (std::pair<uint32_t, double>{63, 9.0}));
  EXPECT_TRUE(IsSortedUnique(TermCounts(out.begin() + 1, out.end())));
}

TEST(HashingVectorizerTest, EmptyInput) {
  HashingVectorizer v(32);
  EXPECT_TRUE(CountIds(v, {}).empty());
}

TEST(TermCountsTest, CountTokenIdsAggregates) {
  TermCounts c = CountTokenIds({5, 3, 5, 5, 3, 9});
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c[0], (std::pair<uint32_t, double>{3, 2.0}));
  EXPECT_EQ(c[1], (std::pair<uint32_t, double>{5, 3.0}));
  EXPECT_EQ(c[2], (std::pair<uint32_t, double>{9, 1.0}));
}

}  // namespace
}  // namespace zombie
