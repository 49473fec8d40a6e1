// Differential test for the radix counting routine (text/term_counts.h)
// against the comparison-sort merge it replaced, kept verbatim below as
// ReferenceNormalize. Every comparison is bitwise (memcmp of the index and
// of the value's bytes), so a count with other bits, or an entry that went
// missing, fails.

#include "text/term_counts.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "text/hashing_vectorizer.h"
#include "util/random.h"

namespace zombie {
namespace {

// The pre-radix NormalizeTermCounts: sort (index, value) pairs, then sum
// the values of equal indices in sorted order.
void ReferenceNormalize(TermCounts* counts) {
  std::sort(counts->begin(), counts->end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  size_t w = 0;
  for (size_t r = 0; r < counts->size(); ++r) {
    if (w > 0 && (*counts)[w - 1].first == (*counts)[r].first) {
      (*counts)[w - 1].second += (*counts)[r].second;
    } else {
      (*counts)[w++] = (*counts)[r];
    }
  }
  counts->resize(w);
}

// The pre-radix HashingVectorizer body: one (index, 1.0) pair per token.
TermCounts ReferenceHash(const std::vector<uint64_t>& token_hashes,
                         uint32_t dimension, uint64_t salt) {
  TermCounts counts;
  for (uint64_t token_hash : token_hashes) {
    uint64_t h = HashCombine(token_hash, salt);
    counts.emplace_back(static_cast<uint32_t>(h % dimension), 1.0);
  }
  ReferenceNormalize(&counts);
  return counts;
}

::testing::AssertionResult BitEqual(const TermCounts& want,
                                    const TermCounts& got) {
  if (want.size() != got.size()) {
    return ::testing::AssertionFailure()
           << "size " << got.size() << ", want " << want.size();
  }
  for (size_t i = 0; i < want.size(); ++i) {
    if (std::memcmp(&want[i].first, &got[i].first, sizeof(uint32_t)) != 0 ||
        std::memcmp(&want[i].second, &got[i].second, sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "entry " << i << ": got (" << got[i].first << ", "
             << got[i].second << "), want (" << want[i].first << ", "
             << want[i].second << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

constexpr uint32_t kDimensions[] = {1, 3, 7, 256, 4096, 8192, 1u << 20};

// Named token-id lists: empty, one token, one token repeated, a Zipf-like
// document, and a long uniform draw that collides heavily in small spaces.
std::vector<std::pair<std::string, std::vector<uint32_t>>> Inputs() {
  std::vector<std::pair<std::string, std::vector<uint32_t>>> out;
  out.emplace_back("empty", std::vector<uint32_t>{});
  out.emplace_back("one", std::vector<uint32_t>{12345});
  out.emplace_back("same", std::vector<uint32_t>(500, 77));
  Rng rng(2024);
  std::vector<uint32_t> doc;
  for (int i = 0; i < 480; ++i) {
    // Squaring a uniform skews toward small ids, like a Zipf head.
    double u = rng.NextDouble();
    doc.push_back(static_cast<uint32_t>(u * u * 30000.0));
  }
  out.emplace_back("doc480", doc);
  std::vector<uint32_t> wide;
  for (int i = 0; i < 3000; ++i) {
    wide.push_back(static_cast<uint32_t>(rng.NextUint64()));
  }
  out.emplace_back("wide3000", wide);
  return out;
}

TEST(TermCountsTest, CountHashesMatchesSortReference) {
  for (uint32_t dim : kDimensions) {
    HashingVectorizer v(dim, /*salt=*/9);
    for (const auto& [name, ids] : Inputs()) {
      std::vector<uint64_t> hashes(ids.begin(), ids.end());
      // Token ids (the bag of words) and arbitrary 64-bit hashes (the
      // bigram extractor's pair hashes).
      for (uint64_t mix : {uint64_t{1}, uint64_t{0x9E3779B97F4A7C15ull}}) {
        std::vector<uint64_t> token_hashes = hashes;
        for (uint64_t& h : token_hashes) h *= mix;
        TermCounts got = {{1, 1.0}};  // CountHashes appends
        v.CountHashes(
            token_hashes.size(),
            [&](size_t i) { return token_hashes[i]; }, &got);
        got.erase(got.begin());
        EXPECT_TRUE(BitEqual(ReferenceHash(token_hashes, dim, 9), got))
            << name << " dim=" << dim << " mix=" << mix;
      }
    }
  }
}

// Crafted index lists straight into CountIndices, including the largest
// index of each space.
TEST(TermCountsTest, CountIndicesMatchesSortReference) {
  Rng rng(7);
  for (uint32_t dim : kDimensions) {
    for (size_t n : {0, 1, 2, 9, 300, 5000}) {
      std::vector<uint32_t> indices;
      TermCounts pairs;
      for (size_t i = 0; i < n; ++i) {
        // A quarter of the draws land on the last index or on 0.
        uint32_t idx = static_cast<uint32_t>(rng.NextBelow(dim));
        if (i % 8 == 0) idx = dim - 1;
        if (i % 8 == 1) idx = 0;
        indices.push_back(idx);
        pairs.emplace_back(idx, 1.0);
      }
      ReferenceNormalize(&pairs);
      TermCounts got = {{42, 4.2}};  // CountIndices appends
      CountIndices(&indices, dim - 1, &got);
      ASSERT_FALSE(got.empty());
      EXPECT_EQ(got[0], (std::pair<uint32_t, double>{42, 4.2}));
      got.erase(got.begin());
      EXPECT_TRUE(BitEqual(pairs, got)) << "n=" << n << " dim=" << dim;
    }
  }
}

TEST(TermCountsTest, CountTokenIdsMatchesSortReference) {
  for (const auto& [name, ids] : Inputs()) {
    TermCounts pairs;
    for (uint32_t id : ids) pairs.emplace_back(id, 1.0);
    ReferenceNormalize(&pairs);
    EXPECT_TRUE(BitEqual(pairs, CountTokenIds(ids))) << name;
  }
  // Ids at the top of the uint32 range take all four radix passes.
  const std::vector<uint32_t> top = {0xFFFFFFFFu, 0, 0xFFFFFFFFu, 0x80000000u};
  const TermCounts want = {{0, 1.0}, {0x80000000u, 1.0}, {0xFFFFFFFFu, 2.0}};
  EXPECT_TRUE(BitEqual(want, CountTokenIds(top)));
}

}  // namespace
}  // namespace zombie
